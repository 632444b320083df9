/* Monotonic nanosecond clock, the kernel clock-tick rate, and CPU
   pinning for the benchmark.  The repository's own clocks read
   gettimeofday (microsecond resolution), too coarse for per-layer spans
   of a few hundred ns. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <unistd.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + (long)ts.tv_nsec);
}

value perfbench_clk_tck(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_CLK_TCK));
}

/* Pin the calling process (and children it spawns afterwards) to one
   CPU.  Returns false when the CPU is not available. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Long_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof(set), &set) == 0);
}

value perfbench_cpu_count(value unit)
{
  cpu_set_t set;
  (void)unit;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return Val_long(1);
  return Val_long(CPU_COUNT(&set));
}
