(* Monotonic time for the benchmark: nanoseconds from CLOCK_MONOTONIC,
   read without allocating, so a timed section's word counts are not
   disturbed by the clock reads around it.  Also CPU pinning, so the
   client and the server it drives run on CPUs of their own. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external clk_tck : unit -> int = "perfbench_clk_tck" [@@noalloc]
external pin_cpu : int -> bool = "perfbench_pin_cpu" [@@noalloc]
external cpu_count : unit -> int = "perfbench_cpu_count" [@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
