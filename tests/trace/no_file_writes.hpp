#pragma once

#include <sys/resource.h>

#include <csignal>

namespace sctrace {

/// Caps the size of any file this process writes at 0 bytes for its
/// lifetime, with SIGXFSZ ignored, so every write to a file, and every
/// ftruncate that would grow one, fails (EFBIG).
struct NoFileWrites {
  NoFileWrites() {
    ::getrlimit(RLIMIT_FSIZE, &saved);
    old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit zero = saved;
    zero.rlim_cur = 0;
    ::setrlimit(RLIMIT_FSIZE, &zero);
  }
  ~NoFileWrites() {
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, old_handler);
  }
  NoFileWrites(const NoFileWrites&) = delete;
  NoFileWrites& operator=(const NoFileWrites&) = delete;
  rlimit saved{};
  void (*old_handler)(int) = nullptr;
};

}  // namespace sctrace
