#include "bench_e2e/probes.h"

#include <sched.h>
#include <sys/statfs.h>
#include <sys/syscall.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace e2e {

int64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  int got = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

int64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atoll(line.c_str() + 6) * 1024;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_maxrss) * 1024;
}

namespace {

cpu_set_t AllCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  for (long c = 0; c < n && c < CPU_SETSIZE; ++c) CPU_SET(c, &set);
  return set;
}

}  // namespace

bool PinDriverApart() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  if (n < 2) return true;
  const pid_t self = static_cast<pid_t>(syscall(SYS_gettid));
  cpu_set_t rest = AllCpus();
  CPU_CLR(0, &rest);
  bool ok = true;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const pid_t tid = static_cast<pid_t>(
        std::atoi(entry.path().filename().c_str()));
    if (tid == self) continue;
    ok &= sched_setaffinity(tid, sizeof rest, &rest) == 0;
  }
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(0, &mine);
  ok &= sched_setaffinity(self, sizeof mine, &mine) == 0;
  return ok && !ec;
}

void PinToCpu(int cpu) {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<int>(cpu % (n < 1 ? 1 : n)), &one);
  sched_setaffinity(static_cast<pid_t>(syscall(SYS_gettid)), sizeof one, &one);
}

void UnpinDriver() {
  cpu_set_t all = AllCpus();
  sched_setaffinity(static_cast<pid_t>(syscall(SYS_gettid)), sizeof all, &all);
}

std::string FsTypeName(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x6969UL:
      return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string KernelName() {
  struct utsname u {};
  if (uname(&u) != 0) return "unknown";
  return std::string(u.sysname) + " " + u.release;
}

}  // namespace e2e
