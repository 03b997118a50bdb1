#include "util/subprocess.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#if !defined(_WIN32)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace dtn::util {

#if !defined(_WIN32)

namespace {

/// Translates a waitpid status word into a ProcessStatus.
ProcessStatus decode_status(int status) {
  ProcessStatus out;
  if (WIFEXITED(status)) {
    out.exited = true;
    out.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    out.signaled = true;
    out.term_signal = WTERMSIG(status);
  }
  return out;
}

}  // namespace

bool Subprocess::spawn(const std::vector<std::string>& argv, bool discard_stdout,
                       std::string* error) {
  if (pid_ > 0 && !reaped_) {
    if (error != nullptr) *error = "a child is already being supervised";
    return false;
  }
  if (argv.empty()) {
    if (error != nullptr) *error = "empty argv";
    return false;
  }
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const auto& arg : argv) cargv.push_back(const_cast<char*>(arg.c_str()));
  cargv.push_back(nullptr);

  const pid_t child = ::fork();
  if (child < 0) {
    if (error != nullptr) {
      *error = std::string("fork failed: ") + std::strerror(errno);
    }
    return false;
  }
  if (child == 0) {
    if (discard_stdout) {
      const int null_fd = ::open("/dev/null", O_WRONLY);
      if (null_fd >= 0) {
        ::dup2(null_fd, STDOUT_FILENO);
        ::close(null_fd);
      }
    }
    ::execv(cargv[0], cargv.data());
    // Exec failed; 127 is the shell's convention for "command not found"
    // and distinguishes spawn failure from any dtnsim exit code.
    _exit(127);
  }
  pid_ = child;
  reaped_ = false;
  last_ = ProcessStatus{};
  last_.running = true;
  return true;
}

ProcessStatus Subprocess::poll() {
  if (pid_ <= 0 || reaped_) return last_;
  int status = 0;
  const pid_t got = ::waitpid(static_cast<pid_t>(pid_), &status, WNOHANG);
  if (got == 0) return last_;  // still running
  if (got < 0) {
    // ECHILD etc: nothing left to reap — report a generic exit so the
    // supervisor does not spin forever on a vanished child.
    last_ = ProcessStatus{};
    last_.exited = true;
    reaped_ = true;
    return last_;
  }
  last_ = decode_status(status);
  reaped_ = true;
  return last_;
}

ProcessStatus Subprocess::wait() {
  if (pid_ <= 0 || reaped_) return last_;
  int status = 0;
  const pid_t got = ::waitpid(static_cast<pid_t>(pid_), &status, 0);
  if (got < 0) {
    last_ = ProcessStatus{};
    last_.exited = true;
    reaped_ = true;
    return last_;
  }
  last_ = decode_status(status);
  reaped_ = true;
  return last_;
}

void Subprocess::kill_hard() {
  if (pid_ > 0 && !reaped_) ::kill(static_cast<pid_t>(pid_), SIGKILL);
}

std::string self_exe_path(const std::string& argv0_fallback) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) {
    buf[len] = '\0';
    return buf;
  }
  if (argv0_fallback.empty()) return "";
  return resolve_executable(argv0_fallback);
}

std::string resolve_executable(const std::string& argv0) {
  if (argv0.empty()) return "";
  if (argv0.front() == '/') return argv0;
  if (argv0.find('/') != std::string::npos) {
    // Relative path: pin it down now — the supervisor may chdir later.
    char resolved[4096];
    if (::realpath(argv0.c_str(), resolved) != nullptr) return resolved;
    return "";
  }
  // Bare command name: walk $PATH like the shell that launched us did.
  const char* path_env = ::getenv("PATH");
  if (path_env == nullptr) return "";
  const std::string path(path_env);
  std::size_t at = 0;
  while (at <= path.size()) {
    std::size_t colon = path.find(':', at);
    if (colon == std::string::npos) colon = path.size();
    // An empty $PATH entry means the current directory, per POSIX.
    const std::string dir =
        colon > at ? path.substr(at, colon - at) : std::string(".");
    at = colon + 1;
    const std::string candidate = dir + "/" + argv0;
    if (::access(candidate.c_str(), X_OK) == 0) {
      char resolved[4096];
      if (::realpath(candidate.c_str(), resolved) != nullptr) return resolved;
      return candidate;
    }
  }
  return "";
}

#else  // _WIN32 stubs: the multi-process fabric is POSIX-gated.

bool Subprocess::spawn(const std::vector<std::string>&, bool, std::string* error) {
  if (error != nullptr) *error = "subprocess supervision is not supported on this platform";
  return false;
}

ProcessStatus Subprocess::poll() { return last_; }

ProcessStatus Subprocess::wait() { return last_; }

void Subprocess::kill_hard() {}

std::string self_exe_path(const std::string&) { return ""; }

std::string resolve_executable(const std::string&) { return ""; }

#endif

}  // namespace dtn::util
