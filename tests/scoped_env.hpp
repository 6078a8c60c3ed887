// Sets one environment variable for a scope and restores it on exit, so a
// test can run the same code at several DEFLATE_THREADS values (which
// util::parallel_for reads on every call).
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace deflate::testutil {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace deflate::testutil
