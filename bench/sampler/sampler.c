/* A sampling profiler to preload into any process of this repository:

     P2P_SAMPLES=samples.txt LD_PRELOAD=.../sampler.so program args

   Every 50 us of wall time (a CLOCK_MONOTONIC timer raising SIGPROF) the
   handler records the interrupted instruction pointer.  At exit the
   samples are written to the file P2P_SAMPLES names, one per line, as
   decimal offsets from the executable's load base (read from
   /proc/self/maps), which is what `nm -n` prints for a position-
   independent executable; a sample outside the executable is written as
   -1.  bench/sampler/symbolize.sh turns the file into a table of
   symbols.  Without P2P_SAMPLES the library does nothing. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAPACITY (1 << 22)
#define PERIOD_NS 50000L

static uintptr_t *samples;
static volatile long count;
static timer_t timer;
static const char *out_path;

static void on_prof(int sig, siginfo_t *info, void *context) {
  (void)sig;
  (void)info;
  long i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
  if (i < CAPACITY)
    samples[i] = (uintptr_t)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
}

/* The executable's lowest mapping: its load base and end. */
static int executable_range(uintptr_t *base, uintptr_t *end) {
  char exe[4096];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (n < 0) return 0;
  exe[n] = '\0';
  FILE *maps = fopen("/proc/self/maps", "r");
  if (!maps) return 0;
  char line[8192];
  int found = 0;
  while (fgets(line, sizeof line, maps)) {
    unsigned long lo, hi;
    char path[4096] = "";
    if (sscanf(line, "%lx-%lx %*s %*s %*s %*s %4095s", &lo, &hi, path) < 2) continue;
    if (strcmp(path, exe) != 0) continue;
    if (!found || lo < *base) *base = lo;
    if (!found || hi > *end) *end = hi;
    found = 1;
  }
  fclose(maps);
  return found;
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (!samples) return;
  timer_delete(timer);
  signal(SIGPROF, SIG_IGN);
  uintptr_t base = 0, end = 0;
  int known = executable_range(&base, &end);
  FILE *out = fopen(out_path, "w");
  if (!out) return;
  long n = count < CAPACITY ? count : CAPACITY;
  for (long i = 0; i < n; i++) {
    uintptr_t pc = samples[i];
    if (known && pc >= base && pc < end)
      fprintf(out, "%lu\n", (unsigned long)(pc - base));
    else
      fputs("-1\n", out);
  }
  fclose(out);
}

__attribute__((constructor)) static void sampler_start(void) {
  out_path = getenv("P2P_SAMPLES");
  if (!out_path || !*out_path) return;
  samples = malloc(CAPACITY * sizeof *samples);
  if (!samples) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) {
    free(samples);
    samples = NULL;
    return;
  }
  struct itimerspec spec = {{0, PERIOD_NS}, {0, PERIOD_NS}};
  timer_settime(timer, 0, &spec, NULL);
}
