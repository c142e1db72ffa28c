#include "exp/sandbox.hh"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "exp/journal.hh"
#include "sim/logging.hh"

namespace persim::exp
{

namespace
{

/** write(2) everything; returns false on a real error (not EINTR). */
bool
writeAll(int fd, const char *data, std::size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<std::size_t>(w);
    }
    return true;
}

} // namespace

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV:
        return "SIGSEGV";
      case SIGABRT:
        return "SIGABRT";
      case SIGBUS:
        return "SIGBUS";
      case SIGFPE:
        return "SIGFPE";
      case SIGILL:
        return "SIGILL";
      case SIGKILL:
        return "SIGKILL";
      case SIGTERM:
        return "SIGTERM";
      case SIGINT:
        return "SIGINT";
      default: {
        // Rare path; a static buffer per signal number would be
        // overkill, and thread-safety matters more than elegance.
        static thread_local char buf[16];
        std::snprintf(buf, sizeof(buf), "SIG%d", sig);
        return buf;
      }
    }
}

JobOutcome
runJobSandboxed(const ExperimentSpec &spec, std::size_t gridIndex,
                std::atomic<int> *childPid)
{
    JobOutcome out;
    out.spec = spec;
    out.attempts = 1;

    int fds[2];
    if (::pipe(fds) != 0) {
        out.error =
            std::string("sandbox pipe failed: ") + std::strerror(errno);
        return out;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(fds[0]);
        ::close(fds[1]);
        out.error =
            std::string("sandbox fork failed: ") + std::strerror(errno);
        return out;
    }

    if (pid == 0) {
        // Child: run exactly one attempt (the parent owns retry and
        // backoff policy) and ship the outcome. SIGPIPE must not kill
        // us if the parent died first; _exit skips static destructors
        // shared with the parent's address space.
        ::close(fds[0]);
        ::signal(SIGPIPE, SIG_IGN);
        const JobOutcome child = runJob(spec, gridIndex);
        const std::string doc = outcomeToWire(child).dump(0);
        writeAll(fds[1], doc.data(), doc.size());
        ::close(fds[1]);
        ::_exit(child.ok ? 0 : 1);
    }

    // Parent: read to EOF first (so a large document cannot deadlock
    // against a full pipe), then reap.
    ::close(fds[1]);
    if (childPid)
        childPid->store(static_cast<int>(pid),
                        std::memory_order_relaxed);
    std::string doc;
    char buf[4096];
    while (true) {
        const ssize_t r = ::read(fds[0], buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (r == 0)
            break;
        doc.append(buf, static_cast<std::size_t>(r));
    }
    ::close(fds[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (childPid)
        childPid->store(0, std::memory_order_relaxed);

    if (!doc.empty()) {
        try {
            const JsonValue wire = JsonValue::parse(doc);
            out = outcomeFromWire(wire, spec, /*index=*/0);
            if (WIFEXITED(status))
                out.exitCode = WEXITSTATUS(status);
            return out;
        } catch (const std::exception &) {
            // Torn document: the child died mid-write. Fall through
            // to the crash classification below.
        }
    }

    if (WIFSIGNALED(status)) {
        out.termSignal = signalName(WTERMSIG(status));
        out.error = std::string("signal: ") + out.termSignal;
    } else if (WIFEXITED(status)) {
        out.exitCode = WEXITSTATUS(status);
        out.error = "child exited with status " +
                    std::to_string(WEXITSTATUS(status)) +
                    " before reporting a result";
    } else {
        out.error = "child vanished without a result";
    }
    return out;
}

} // namespace persim::exp
