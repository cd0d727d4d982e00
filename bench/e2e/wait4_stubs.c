/* wait4(2) for the benchmark's child runs.  OCaml's Unix.waitpid reports
   only the exit status; the benchmark also needs the child's resource
   usage: peak resident set size (ru_maxrss) and user/system CPU time. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

static double seconds_of_timeval(struct timeval tv)
{
  return (double)tv.tv_sec + (double)tv.tv_usec / 1e6;
}

/* Returns (status, user_s, sys_s, maxrss_kib): status is the exit code
   when the child exited, minus the signal number when a signal killed it. */
CAMLprim value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid);
  int status = 0;
  struct rusage ru;
  pid_t got;
  int err;

  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    got = wait4(pid, &status, 0, &ru);
  } while (got < 0 && errno == EINTR);
  err = errno;
  caml_leave_blocking_section();
  if (got < 0) caml_failwith(strerror(err));

  res = caml_alloc_tuple(4);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, caml_copy_double(seconds_of_timeval(ru.ru_utime)));
  Store_field(res, 2, caml_copy_double(seconds_of_timeval(ru.ru_stime)));
  Store_field(res, 3, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
