// Fixture: fatal gtest assertions in thread lambdas — `assert-in-thread`
// must fire on ASSERT_* / FAIL() in lambdas handed to std::thread and to
// emplace_back on a thread vector, and stay silent on EXPECT_*, on lambdas
// that are not thread bodies, and on fatal assertions outside the lambda.
#include <thread>
#include <vector>

namespace smn {

void Spawns(bool ok) {
  std::thread direct([&] {
    ASSERT_TRUE(ok);  // fires
  });
  std::vector<std::thread> workers;
  workers.emplace_back([&, ok]() mutable {
    EXPECT_TRUE(ok);  // clean: non-fatal
    if (!ok) FAIL() << "stop";  // fires
  });
  workers.push_back(std::thread([ok] { ASSERT_EQ(ok, true); }));  // fires
  auto not_a_thread = [&] { ASSERT_TRUE(ok); };  // clean: no thread
  not_a_thread();
  direct.join();
  for (std::thread& worker : workers) worker.join();
  ASSERT_TRUE(ok);  // clean: the test's own thread
}

}  // namespace smn
