#include "daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "serve/client.h"

namespace adrec::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kListening = "adrecd listening on ";
constexpr auto kStartTimeout = std::chrono::seconds(60);
constexpr auto kStopTimeout = std::chrono::seconds(15);

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::vector<std::string>& flags,
    const std::string& log_path) {
  std::unique_ptr<Daemon> d(new Daemon());
  d->log_path_ = log_path;
  std::vector<std::string> args = {binary, "--port=0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return Status::IoError(Errno("pipe"));
  const int log = open(log_path.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                       0644);
  if (log < 0) {
    close(out[0]);
    close(out[1]);
    return Status::IoError(Errno(("open " + log_path).c_str()));
  }
  const pid_t parent = getpid();
  const Clock::time_point spawned = Clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    // Only async-signal-safe calls until exec. The death signal is tied
    // to the forking thread, which is why callers start daemons from
    // the main thread.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    dup2(out[1], STDOUT_FILENO);
    dup2(log, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log);
  if (pid < 0) {
    close(out[0]);
    return Status::IoError(Errno("fork"));
  }
  d->pid_ = pid;
  d->stdout_fd_ = out[0];

  // Read stdout up to the listening line; it carries the port.
  std::string buf;
  const Clock::time_point deadline = spawned + kStartTimeout;
  for (;;) {
    const size_t at = buf.find(kListening);
    if (at != std::string::npos && buf.find('\n', at) != std::string::npos) {
      d->port_ = static_cast<uint16_t>(std::atoi(
          buf.c_str() + buf.find(':', at + kListening.size()) + 1));
      d->startup_ = buf.substr(0, at);
      break;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      return Status::Internal("adrecd did not listen within 60 s; see " +
                              log_path);
    }
    pollfd p{d->stdout_fd_, POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left.count())) < 0 && errno != EINTR) {
      return Status::IoError(Errno("poll"));
    }
    char chunk[4096];
    const ssize_t n = read(d->stdout_fd_, chunk, sizeof(chunk));
    if (n == 0) {
      return Status::Internal("adrecd exited before listening; see " +
                              log_path + ":\n" + buf);
    }
    if (n > 0) buf.append(chunk, static_cast<size_t>(n));
  }

  serve::Client client;
  Status st = client.Connect("127.0.0.1", d->port_);
  if (st.ok()) st = client.Ping();
  if (!st.ok()) return st;
  d->setup_seconds_ =
      std::chrono::duration<double>(Clock::now() - spawned).count();
  client.Quit();

  const std::string rest = buf.substr(buf.find('\n', buf.find(kListening)));
  d->drain_ = std::thread([fd = d->stdout_fd_, path = log_path, rest] {
    std::ofstream log(path, std::ios::app);
    log << rest;
    char chunk[4096];
    for (;;) {
      const ssize_t n = read(fd, chunk, sizeof(chunk));
      if (n > 0) {
        log.write(chunk, n);
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  });
  return d;
}

Daemon::~Daemon() {
  if (pid_ > 0) (void)Stop();
  if (drain_.joinable()) drain_.join();
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

double Daemon::StartupField(const std::string& key) const {
  const size_t at = startup_.find(key + "=");
  return at == std::string::npos
             ? NAN
             : std::atof(startup_.c_str() + at + key.size() + 1);
}

Result<double> Daemon::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return Status::NotFound("no VmHWM for adrecd pid " + std::to_string(pid_));
}

Result<int64_t> Daemon::CpuNs() const {
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  int64_t ns = 0;
  std::error_code ec;
  for (const auto& t : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream schedstat(t.path() / "schedstat");
    long long run = 0;
    if (schedstat >> run) ns += run;
  }
  if (ec) return Status::IoError("list " + tasks + ": " + ec.message());
  return ns;
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + kStopTimeout;
  int wstatus = 0;
  pid_t done = 0;
  while ((done = waitpid(pid_, &wstatus, WNOHANG)) == 0 &&
         Clock::now() < deadline) {
    usleep(2000);
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &wstatus, 0);
  }
  pid_ = -1;
  if (drain_.joinable()) drain_.join();
  if (done == 0) return Status::Internal("adrecd ignored SIGTERM; killed");
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("adrecd did not exit 0; see " + log_path_);
  }
  return Status::OK();
}

Result<std::unique_ptr<Daemon>> StartForWorkload(
    const std::string& binary, const WorkloadSpec& spec, const Inputs& in,
    const std::string& seed_wal, const std::string& root,
    const std::string& name, bool checkpoints) {
  const std::string wal_dir = spec.wal ? root + "/wal-" + name : "";
  if (spec.wal) {
    std::error_code ec;
    std::filesystem::copy(seed_wal, wal_dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) return Status::IoError("copy seed log: " + ec.message());
  }
  return Daemon::Start(
      binary,
      DaemonFlags(spec, spec.wal ? in.kb_dir : in.data_dir, wal_dir,
                  checkpoints),
      root + "/adrecd-" + name + ".log");
}

}  // namespace adrec::e2e
