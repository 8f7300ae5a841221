/**
 * @file
 * spawn: run one program and report its own peak RSS and wall time.
 *
 *   spawn <program> [args...]
 *
 * The child inherits stdin/stdout/stderr; after it exits, spawn
 * appends one line "spawn: <peak rss KB> <seconds>" to stderr and
 * exits with the child's exit code (128 + signal when it was killed).
 *
 * Linux folds the pre-exec address space into a process's
 * ru_maxrss, so a child started straight from a large interpreter
 * reports the interpreter's size.  This launcher is small, and it
 * starts the child with posix_spawn, so the figure it prints is the
 * child's own.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>

extern char **environ;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: spawn <program> [args...]\n");
        return 2;
    }
    const auto t0 = std::chrono::steady_clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, argv[1], nullptr, nullptr, argv + 1,
                    environ) != 0) {
        std::perror("spawn");
        return 127;
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid, &status, 0, &usage) != pid) {
        std::perror("spawn: wait4");
        return 127;
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    std::fprintf(stderr, "\nspawn: %ld %.9f\n", usage.ru_maxrss, seconds);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}
