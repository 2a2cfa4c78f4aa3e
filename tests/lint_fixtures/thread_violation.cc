// sensord_lint fixture: the single-thread rule must fire EXACTLY ONCE per
// banned name below, 11 in all. Not compiled into any target, so the std
// names appear without their headers (an #include <mutex> would be a
// second 'mutex' hit).

namespace sensord_lint_fixture {

struct SharedState {
  std::mutex mu;                        // VIOLATION: mutex
  std::shared_mutex readers;            // VIOLATION: shared_mutex
  std::recursive_mutex reentrant;       // VIOLATION: recursive_mutex
  std::atomic<int> hits{0};             // VIOLATION: atomic
  std::condition_variable ready;        // VIOLATION: condition_variable
  std::promise<int> result;             // VIOLATION: promise
};

inline int Spawn() {
  std::thread worker([] {});            // VIOLATION: thread
  std::jthread joined([] {});           // VIOLATION: jthread
  std::this_thread::yield();            // VIOLATION: this_thread
  std::future<int> answer =             // VIOLATION: future
      std::async([] { return 42; });    // VIOLATION: async
  worker.join();
  return answer.get();
}

}  // namespace sensord_lint_fixture
