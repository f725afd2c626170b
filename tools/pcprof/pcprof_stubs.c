/* A machine-code PC sampler for x86-64 Linux: ITIMER_PROF delivers
   SIGPROF at the process's CPU-time rate (capped by the kernel's HZ),
   and the handler records the interrupted instruction pointer.  When
   that pointer is inside caml_modify, it also records the top stack
   words, so the sample can be charged to caml_modify's caller.

   The handler runs on an alternate stack: OCaml 5 runs effect fibers
   on small heap-allocated stacks, which a signal frame would overflow.
   It only stores into a preallocated buffer. */

#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "pcprof supports x86-64 Linux only"
#endif

#define MAX_SAMPLES (1 << 16)
#define STACK_WORDS 4
#define ALT_STACK_BYTES (64 * 1024)
/* Generous: the function is a few dozen instructions. */
#define MODIFY_BYTES 512

static uintptr_t pcs[MAX_SAMPLES];
static uintptr_t stacks[MAX_SAMPLES][STACK_WORDS];
static volatile int taken = 0;
static void *alt_stack = NULL;

static void on_prof(int sig, siginfo_t *info, void *ctx)
{
  ucontext_t *uc = ctx;
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  int i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  (void)sig;
  (void)info;
  if (i >= MAX_SAMPLES) return;
  pcs[i] = pc;
  if (pc - (uintptr_t)&caml_modify < MODIFY_BYTES) {
    uintptr_t *sp = (uintptr_t *)uc->uc_mcontext.gregs[REG_RSP];
    for (int w = 0; w < STACK_WORDS; w++) stacks[i][w] = sp[w];
  }
}

static void set_timer(long usec)
{
  struct itimerval it;
  memset(&it, 0, sizeof it);
  it.it_interval.tv_usec = usec;
  it.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &it, NULL);
}

/* Start sampling every [usec] microseconds of process CPU time. */
value pcprof_start(value usec)
{
  stack_t ss;
  struct sigaction sa;
  if (alt_stack == NULL) alt_stack = malloc(ALT_STACK_BYTES);
  if (alt_stack == NULL) caml_failwith("pcprof: no memory for the signal stack");
  ss.ss_sp = alt_stack;
  ss.ss_size = ALT_STACK_BYTES;
  ss.ss_flags = 0;
  if (sigaltstack(&ss, NULL) != 0) caml_failwith("pcprof: sigaltstack failed");
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) caml_failwith("pcprof: sigaction failed");
  taken = 0;
  set_timer(Long_val(usec));
  return Val_unit;
}

/* Stop sampling and return the samples as an array of
   (pc, stack words) pairs, with the runtime address of caml_modify
   first so the caller can find the load base. */
value pcprof_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal3(res, pair, words);
  int n;
  (void)unit;
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  res = caml_alloc_tuple(2);
  Store_field(res, 0, caml_copy_nativeint((intnat)&caml_modify));
  Store_field(res, 1, caml_alloc_tuple(n));
  for (int i = 0; i < n; i++) {
    words = caml_alloc_tuple(STACK_WORDS);
    for (int w = 0; w < STACK_WORDS; w++)
      Store_field(words, w, caml_copy_nativeint((intnat)stacks[i][w]));
    pair = caml_alloc_tuple(2);
    Store_field(pair, 0, caml_copy_nativeint((intnat)pcs[i]));
    Store_field(pair, 1, words);
    Store_field(Field(res, 1), i, pair);
  }
  CAMLreturn(res);
}
