(* Multi-domain workload driver over any implementation of the DICT
   signature: throughput runs (EXP-4/EXP-5) and short recorded bursts whose
   histories feed the linearizability checker (EXP-10).

   The machine this repository is developed on has a single core, so
   multi-domain throughput numbers measure synchronization overhead and
   preemption robustness rather than parallel speedup; the scaling-shape
   claims live in the simulator experiments instead (see DESIGN.md). *)

module type INT_DICT = Lf_kernel.Dict_intf.S with type key = int
module type INT_DICT_BATCHED = Lf_kernel.Dict_intf.BATCHED with type key = int

type throughput = {
  impl : string;
  domains : int;
  total_ops : int;
  elapsed_s : float;
  ops_per_s : float;
}

let now () = Unix.gettimeofday ()

(* Spin-barrier so all domains start the measured section together. *)
let barrier n =
  let c = Atomic.make 0 in
  fun () ->
    Atomic.incr c;
    while Atomic.get c < n do
      Domain.cpu_relax ()
    done

(* Insert keys until the structure holds [fill]% of the key range. *)
let prefill ~key_range ~fill ~seed (insert : int -> bool) =
  let rng = Lf_kernel.Splitmix.create seed in
  let target = key_range * fill / 100 in
  let rec go inserted =
    if inserted < target then
      let k = Lf_kernel.Splitmix.int rng key_range in
      go (if insert k then inserted + 1 else inserted)
  in
  go 0

let run_throughput ?keygen (module D : INT_DICT) ~domains ~ops_per_domain
    ~key_range ~(mix : Opgen.mix) ~seed () : throughput =
  let keygen_for =
    match keygen with
    | Some f -> f
    | None -> fun _did -> Keygen.uniform key_range
  in
  let t = D.create () in
  prefill ~key_range ~fill:50 ~seed:((seed * 7) + 1) (fun k -> D.insert t k k);
  let enter = barrier domains in
  let work did =
    (* Lane id makes worker threads distinguishable in recorded traces
       (and to fault plans); the span markers cost one word read each
       while the recorder is off. *)
    Lf_kernel.Lane.set did;
    let rng = Lf_kernel.Splitmix.create (seed + (1000 * did)) in
    let keygen = keygen_for did in
    enter ();
    (* Key-then-kind draw: [Opgen.kind] has constant constructors, so the
       per-op bookkeeping here allocates nothing (boxing an [Opgen.op]
       per draw showed up as minor-heap churn in EXP-22's GC attribution). *)
    for _ = 1 to ops_per_domain do
      let k = Keygen.draw keygen rng in
      match Opgen.draw_kind mix rng with
      | Insert_k ->
          Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Insert ~key:k;
          let ok = D.insert t k k in
          Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Insert ~ok
      | Delete_k ->
          Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Delete ~key:k;
          let ok = D.delete t k in
          Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Delete ~ok
      | Find_k ->
          Lf_obs.Recorder.span_begin ~op:Lf_obs.Obs_event.Find ~key:k;
          let ok = Option.is_some (D.find t k) in
          Lf_obs.Recorder.span_end ~op:Lf_obs.Obs_event.Find ~ok
    done;
    Lf_kernel.Lane.clear ()
  in
  let t0 = now () in
  let ds = List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  let elapsed = now () -. t0 in
  D.check_invariants t;
  let total = domains * ops_per_domain in
  {
    impl = D.name;
    domains;
    total_ops = total;
    elapsed_s = elapsed;
    ops_per_s = float_of_int total /. elapsed;
  }

(* Batched variant: the operation stream is consumed [batch] ops at a
   time; each chunk is partitioned by kind and issued through the batched
   entry points, which sort by key and carry predecessors element to
   element. *)
let run_throughput_batched ?keygen (module D : INT_DICT_BATCHED) ~domains
    ~ops_per_domain ~batch ~key_range ~(mix : Opgen.mix) ~seed () :
    throughput =
  if batch <= 0 then invalid_arg "run_throughput_batched: batch must be > 0";
  let keygen_for =
    match keygen with
    | Some f -> f
    | None -> fun _did -> Keygen.uniform key_range
  in
  let t = D.create () in
  prefill ~key_range ~fill:50 ~seed:((seed * 7) + 1) (fun k -> D.insert t k k);
  let enter = barrier domains in
  let work did =
    let rng = Lf_kernel.Splitmix.create (seed + (1000 * did)) in
    let keygen = keygen_for did in
    enter ();
    let remaining = ref ops_per_domain in
    while !remaining > 0 do
      let b = min batch !remaining in
      remaining := !remaining - b;
      let ins = ref [] and del = ref [] and fnd = ref [] in
      for _ = 1 to b do
        match Opgen.draw mix keygen rng with
        | Insert k -> ins := (k, k) :: !ins
        | Delete k -> del := k :: !del
        | Find k -> fnd := k :: !fnd
      done;
      (match !ins with [] -> () | l -> ignore (D.insert_batch t l));
      (match !del with [] -> () | l -> ignore (D.delete_batch t l));
      (match !fnd with [] -> () | l -> ignore (D.mem_batch t l))
    done
  in
  let t0 = now () in
  let ds =
    List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1)))
  in
  work 0;
  List.iter Domain.join ds;
  let elapsed = now () -. t0 in
  D.check_invariants t;
  let total = domains * ops_per_domain in
  {
    impl = D.name;
    domains;
    total_ops = total;
    elapsed_s = elapsed;
    ops_per_s = float_of_int total /. elapsed;
  }

(* Short recorded burst: each domain performs [ops_per_domain] operations on
   a small key range while timestamping them; the merged history goes to the
   linearizability checker.  Keep domains * ops_per_domain <= 62. *)
let run_recorded (module D : INT_DICT) ~domains ~ops_per_domain ~key_range
    ~(mix : Opgen.mix) ~seed () : Lf_lin.History.t =
  let t = D.create () in
  let rec_ = Lf_lin.History.Recorder.create () in
  let enter = barrier domains in
  let work did =
    let rng = Lf_kernel.Splitmix.create (seed + (1000 * did)) in
    let keygen = Keygen.uniform key_range in
    let acc = ref [] in
    enter ();
    for _ = 1 to ops_per_domain do
      let op = Opgen.draw mix keygen rng in
      let inv = Lf_lin.History.Recorder.tick rec_ in
      let hop, ok =
        match op with
        | Insert k -> (Lf_lin.History.Insert k, D.insert t k k)
        | Delete k -> (Lf_lin.History.Delete k, D.delete t k)
        | Find k -> (Lf_lin.History.Find k, Option.is_some (D.find t k))
      in
      let ret = Lf_lin.History.Recorder.tick rec_ in
      acc := { Lf_lin.History.pid = did; op = hop; ok; inv; ret } :: !acc
    done;
    Lf_lin.History.Recorder.add rec_ !acc
  in
  let ds = List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  D.check_invariants t;
  Lf_lin.History.Recorder.history rec_

(* ------------------------------------------------------------------ *)
(* Chaos runs: multi-domain stress under an injected-fault plan.       *)
(* ------------------------------------------------------------------ *)

type chaos_report = {
  c_impl : string;
  c_domains : int;
  c_window_s : float;
  c_budget_s : float;
  c_ops : int array;
  c_crashed : int list;
  c_worst_latency_s : float array;
  c_starved : (int * float) list;
  c_watchdog_tripped : bool;
  c_survivors : int;
  c_survivor_ops : int;
  c_survivor_ops_per_s : float;
  c_counters : (string * int) list;
}

let pp_chaos_report ppf r =
  Format.fprintf ppf "@[<v>chaos %s: %d domains, %.3fs window@," r.c_impl
    r.c_domains r.c_window_s;
  Format.fprintf ppf "  ops/lane: %a@,"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       Format.pp_print_int)
    (Array.to_list r.c_ops);
  if r.c_crashed <> [] then
    Format.fprintf ppf "  crashed lanes: %a@,"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
         Format.pp_print_int)
      r.c_crashed;
  List.iter
    (fun (lane, worst) ->
      Format.fprintf ppf "  STARVED lane %d: worst op latency %.3fs > %.3fs budget@,"
        lane worst r.c_budget_s)
    r.c_starved;
  List.iter
    (fun (k, v) -> Format.fprintf ppf "  %s: %d@," k v)
    r.c_counters;
  Format.fprintf ppf "  watchdog %s; survivors %d: %d ops (%.0f ops/s)@]"
    (if r.c_watchdog_tripped then "TRIPPED" else "quiet")
    r.c_survivors r.c_survivor_ops r.c_survivor_ops_per_s

(* The monitor (main domain) polls per-lane heartbeats instead of joining
   blindly, so a non-lock-free structure under a stalled lock holder is
   reported as starvation rather than hanging the run.  Victim closures
   must terminate on their own (OCaml domains cannot be killed): a "crash"
   of a lock holder is modeled as a stall much longer than the watchdog
   budget, after which the lock is released and every join completes. *)
let run_chaos ?(victims = []) ?(budget_s = 0.05) ?(window_s = 0.2)
    ?(sample = fun () -> []) ~name ~(insert : int -> bool)
    ~(delete : int -> bool) ~(find : int -> bool) ~domains ~key_range
    ~(mix : Opgen.mix) ~seed () : chaos_report =
  (* The monitor (this domain) also runs the prefill; park it on lane -1 so
     its accesses never match a worker-lane-targeted fault rule (the lane
     fallback is the domain id, which would collide with worker lane 0). *)
  Lf_kernel.Lane.set (-1);
  prefill ~key_range ~fill:50 ~seed:((seed * 7) + 1) insert;
  let base = sample () in
  let stop = Atomic.make false in
  let completed = Array.init domains (fun _ -> Atomic.make 0) in
  (* Per-lane heartbeat: invocation time of the op in flight, in integer
     microseconds since [t_origin]; -1 = no op in flight.  Lane states:
     0 = running, 1 = done, 2 = crashed by an injected fault. *)
  let op_start = Array.init domains (fun _ -> Atomic.make (-1)) in
  let state = Array.init domains (fun _ -> Atomic.make 0) in
  let t_origin = now () in
  let us t = int_of_float ((t -. t_origin) *. 1e6) in
  let enter = barrier (domains + 1) in
  let work did =
    Lf_kernel.Lane.set did;
    let rng = Lf_kernel.Splitmix.create (seed + (1000 * did)) in
    let keygen = Keygen.uniform key_range in
    enter ();
    (match List.assoc_opt did victims with
    | Some victim -> victim ()
    | None -> (
        try
          while not (Atomic.get stop) do
            let op = Opgen.draw mix keygen rng in
            Atomic.set op_start.(did) (us (now ()));
            (match op with
            | Opgen.Insert k -> ignore (insert k)
            | Delete k -> ignore (delete k)
            | Find k -> ignore (find k));
            Atomic.set op_start.(did) (-1);
            Atomic.incr completed.(did)
          done
        with Lf_fault.Fault.Crashed _ ->
          Atomic.set op_start.(did) (-1);
          Atomic.set state.(did) 2));
    if Atomic.get state.(did) = 0 then Atomic.set state.(did) 1;
    Lf_kernel.Lane.clear ()
  in
  let ds = List.init domains (fun i -> Domain.spawn (fun () -> work i)) in
  (* An op in flight is charged only the time the monitor saw pass between
     two of its own polls, each poll gap capped at [max_gap_s].  A longer
     gap means the monitor itself was stopped: a stop-the-world collection
     stops every domain, the monitor included, and so does a descheduled
     vCPU, so such a gap is no evidence of one lane starving another.  A
     lane blocked behind a stalled lock holder accrues time at every poll.
     [seen] is the start stamp of the op each lane was last charged for. *)
  let max_gap_s = 0.005 in
  let worst = Array.make domains 0. in
  let charged = Array.make domains 0. in
  let seen = Array.make domains (-1) in
  let ops_at_close = Array.make domains 0 in
  enter ();
  let t0 = now () in
  let close_t = ref t0 in
  let closed = ref false in
  let last_poll = ref t0 in
  let all_settled () = Array.for_all (fun s -> Atomic.get s <> 0) state in
  while not (!closed && all_settled ()) do
    let tn = now () in
    let gap = Float.min (tn -. !last_poll) max_gap_s in
    last_poll := tn;
    if (not !closed) && tn -. t0 >= window_s then begin
      Array.iteri (fun i c -> ops_at_close.(i) <- Atomic.get c) completed;
      close_t := tn;
      closed := true;
      Atomic.set stop true
    end;
    for i = 0 to domains - 1 do
      let s = Atomic.get op_start.(i) in
      if s >= 0 then begin
        if s <> seen.(i) then begin
          seen.(i) <- s;
          let since_start = tn -. t_origin -. (float_of_int s /. 1e6) in
          charged.(i) <- Float.max 0. (Float.min since_start gap)
        end
        else charged.(i) <- charged.(i) +. gap;
        if charged.(i) > worst.(i) then worst.(i) <- charged.(i)
      end
    done;
    Unix.sleepf 0.0005
  done;
  List.iter Domain.join ds;
  Lf_kernel.Lane.clear ();
  let after = sample () in
  let counters =
    List.map
      (fun (k, v) ->
        match List.assoc_opt k base with
        | Some v0 -> (k, v - v0)
        | None -> (k, v))
      after
  in
  let is_victim i = List.mem_assoc i victims in
  let crashed = ref [] in
  for i = domains - 1 downto 0 do
    if Atomic.get state.(i) = 2 then crashed := i :: !crashed
  done;
  let starved = ref [] in
  for i = domains - 1 downto 0 do
    if (not (is_victim i)) && worst.(i) > budget_s then
      starved := (i, worst.(i)) :: !starved
  done;
  let survivor i = (not (is_victim i)) && Atomic.get state.(i) <> 2 in
  let survivors = ref 0 and survivor_ops = ref 0 in
  for i = 0 to domains - 1 do
    if survivor i then begin
      incr survivors;
      survivor_ops := !survivor_ops + ops_at_close.(i)
    end
  done;
  let elapsed = !close_t -. t0 in
  {
    c_impl = name;
    c_domains = domains;
    c_window_s = elapsed;
    c_budget_s = budget_s;
    c_ops = ops_at_close;
    c_crashed = !crashed;
    c_worst_latency_s = worst;
    c_starved = !starved;
    c_watchdog_tripped = !starved <> [];
    c_survivors = !survivors;
    c_survivor_ops = !survivor_ops;
    c_survivor_ops_per_s =
      (if elapsed > 0. then float_of_int !survivor_ops /. elapsed else 0.);
    c_counters = counters;
  }

(* ------------------------------------------------------------------ *)
(* Open-loop overload runs: arrivals paced by a rate, not by           *)
(* completions.                                                        *)
(* ------------------------------------------------------------------ *)

type verdict = [ `Served of bool | `Rejected | `Failed ]

type class_counts = {
  cc_handled : int;
  cc_served : int;
  cc_served_ok : int;
  cc_rejected : int;
  cc_failed : int;
}

type open_loop_report = {
  o_offered : int;
  o_handled : int;
  o_served : int;
  o_served_ok : int;
  o_rejected : int;
  o_failed : int;
  o_leftover : int;
  o_elapsed_s : float;
  o_goodput : float;
  o_latency : Lf_obs.Hist.t;
  o_by_class : class_counts array;
}

let pp_open_loop_report ppf r =
  Format.fprintf ppf
    "@[<v>open-loop: offered %d in %.3fs, handled %d@,\
    \  served %d (%d ok, %.0f/s goodput), rejected %d, failed %d, leftover %d@,\
    \  latency p50 %.2fms p99 %.2fms max %.2fms@]"
    r.o_offered r.o_elapsed_s r.o_handled r.o_served r.o_served_ok r.o_goodput
    r.o_rejected r.o_failed r.o_leftover
    (if Lf_obs.Hist.count r.o_latency = 0 then 0.
     else Lf_obs.Hist.percentile r.o_latency 0.5 /. 1e6)
    (if Lf_obs.Hist.count r.o_latency = 0 then 0.
     else Lf_obs.Hist.percentile r.o_latency 0.99 /. 1e6)
    (float_of_int (Lf_obs.Hist.max_value r.o_latency) /. 1e6)

let run_open_loop ?(workers = 2) ?keygen ?(classes = 0) ?class_of ~rate
    ~window_s ~key_range ~(mix : Opgen.mix) ~seed ~serve () :
    open_loop_report =
  if rate <= 0 then invalid_arg "run_open_loop: rate must be > 0";
  if workers < 1 then invalid_arg "run_open_loop: workers must be >= 1";
  if classes < 0 then invalid_arg "run_open_loop: classes must be >= 0";
  if classes > 0 && class_of = None then
    invalid_arg "run_open_loop: classes without class_of";
  let q : (int * Opgen.op) Queue.t = Queue.create () in
  let mu = Mutex.create () and cv = Condition.create () in
  let stop = Atomic.make false in
  let handled = Array.make workers 0
  and served = Array.make workers 0
  and served_ok = Array.make workers 0
  and rejected = Array.make workers 0
  and failed = Array.make workers 0 in
  let hists = Array.init workers (fun _ -> Lf_obs.Hist.create ()) in
  (* Per-class (e.g. per-shard) accounting: a [workers x classes] grid
     of plain counters — each worker bumps only its own row, merged
     after the joins, so the accounting stays race-free and the hot
     loop lock-free. *)
  let by_class () =
    Array.init workers (fun _ -> Array.make (max 1 classes) 0)
  in
  let c_handled = by_class ()
  and c_served = by_class ()
  and c_served_ok = by_class ()
  and c_rejected = by_class ()
  and c_failed = by_class () in
  let classify op =
    match class_of with
    | Some f when classes > 0 ->
        let c = f op in
        if c < 0 || c >= classes then
          invalid_arg "run_open_loop: class_of out of range"
        else c
    | _ -> -1
  in
  let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9) in
  let pop () =
    Mutex.lock mu;
    (* Stop takes precedence over draining: at window close the workers
       down tools and whatever is still queued is counted as leftover
       (otherwise an overloaded run would take unboundedly long). *)
    let rec await () =
      if Atomic.get stop then None
      else if not (Queue.is_empty q) then begin
        let item = Queue.pop q in
        Some (item, Queue.length q)
      end
      else begin
        Condition.wait cv mu;
        await ()
      end
    in
    let r = await () in
    Mutex.unlock mu;
    r
  in
  let work did =
    Lf_kernel.Lane.set did;
    let continue = ref true in
    while !continue do
      match pop () with
      | None -> continue := false
      | Some ((arrival_ns, op), depth) -> (
          handled.(did) <- handled.(did) + 1;
          let c = classify op in
          let bump a = if c >= 0 then a.(did).(c) <- a.(did).(c) + 1 in
          bump c_handled;
          match serve ~arrival_ns ~queue_depth:depth op with
          | `Served ok ->
              served.(did) <- served.(did) + 1;
              bump c_served;
              if ok then begin
                served_ok.(did) <- served_ok.(did) + 1;
                bump c_served_ok
              end;
              Lf_obs.Hist.add hists.(did) (now_ns () - arrival_ns)
          | `Rejected ->
              rejected.(did) <- rejected.(did) + 1;
              bump c_rejected
          | `Failed ->
              failed.(did) <- failed.(did) + 1;
              bump c_failed)
    done;
    Lf_kernel.Lane.clear ()
  in
  Lf_kernel.Lane.set (-1);
  let ds = List.init workers (fun i -> Domain.spawn (fun () -> work i)) in
  let rng = Lf_kernel.Splitmix.create seed in
  let keygen =
    match keygen with Some kg -> kg | None -> Keygen.uniform key_range
  in
  let t0 = now () in
  let t_end = t0 +. window_s in
  let interval = 1. /. float_of_int rate in
  let offered = ref 0 in
  (* [next] is the schedule; when the generator wakes up late it enqueues
     the whole backlog at once, so the arrival count depends only on the
     rate — never on how fast completions drain. *)
  let next = ref t0 in
  let tn = ref (now ()) in
  while !tn < t_end do
    if !tn >= !next then begin
      Mutex.lock mu;
      while !next <= !tn && !next < t_end do
        let op = Opgen.draw mix keygen rng in
        Queue.push (now_ns (), op) q;
        incr offered;
        next := !next +. interval
      done;
      Mutex.unlock mu;
      Condition.broadcast cv
    end
    else Unix.sleepf (min (!next -. !tn) 0.001);
    tn := now ()
  done;
  let close_t = now () in
  Atomic.set stop true;
  Mutex.lock mu;
  Condition.broadcast cv;
  Mutex.unlock mu;
  List.iter Domain.join ds;
  Lf_kernel.Lane.clear ();
  let leftover = Queue.length q in
  let latency = Lf_obs.Hist.create () in
  Array.iter (fun h -> Lf_obs.Hist.merge_into ~into:latency h) hists;
  let sum a = Array.fold_left ( + ) 0 a in
  let elapsed = close_t -. t0 in
  {
    o_offered = !offered;
    o_handled = sum handled;
    o_served = sum served;
    o_served_ok = sum served_ok;
    o_rejected = sum rejected;
    o_failed = sum failed;
    o_leftover = leftover;
    o_elapsed_s = elapsed;
    o_goodput =
      (if elapsed > 0. then float_of_int (sum served) /. elapsed else 0.);
    o_latency = latency;
    o_by_class =
      Array.init classes (fun c ->
          let col a =
            Array.fold_left (fun acc row -> acc + row.(c)) 0 a
          in
          {
            cc_handled = col c_handled;
            cc_served = col c_served;
            cc_served_ok = col c_served_ok;
            cc_rejected = col c_rejected;
            cc_failed = col c_failed;
          });
  }

exception Lane_crashed

(* Recorded chaos burst: completed operations go into the history;
   operations cut short by an injected crash come back in a second list
   with [ret = max_int] (still pending — possibly helped to completion by
   survivors, possibly not).  The lane stops at its crash, like a crashed
   process in the paper's model. *)
let run_chaos_recorded ~(insert : int -> bool) ~(delete : int -> bool)
    ~(find : int -> bool) ~domains ~ops_per_domain ~key_range
    ~(mix : Opgen.mix) ~seed () : Lf_lin.History.t * Lf_lin.History.t =
  let rec_ = Lf_lin.History.Recorder.create () in
  let pending = Array.make domains [] in
  let enter = barrier domains in
  let work did =
    Lf_kernel.Lane.set did;
    let rng = Lf_kernel.Splitmix.create (seed + (1000 * did)) in
    let keygen = Keygen.uniform key_range in
    let acc = ref [] in
    enter ();
    (try
       for _ = 1 to ops_per_domain do
         let op = Opgen.draw mix keygen rng in
         let inv = Lf_lin.History.Recorder.tick rec_ in
         let hop =
           match op with
           | Opgen.Insert k -> Lf_lin.History.Insert k
           | Delete k -> Lf_lin.History.Delete k
           | Find k -> Lf_lin.History.Find k
         in
         match
           try
             `Ret
               (match op with
               | Opgen.Insert k -> insert k
               | Delete k -> delete k
               | Find k -> find k)
           with Lf_fault.Fault.Crashed _ -> `Crashed
         with
         | `Ret ok ->
             let ret = Lf_lin.History.Recorder.tick rec_ in
             acc := { Lf_lin.History.pid = did; op = hop; ok; inv; ret } :: !acc
         | `Crashed ->
             (* [ok] is a placeholder; the pending-aware checker tries both
                outcomes (and absence). *)
             pending.(did) <-
               [ { Lf_lin.History.pid = did; op = hop; ok = true; inv; ret = max_int } ];
             raise Lane_crashed
       done
     with Lane_crashed -> ());
    Lf_lin.History.Recorder.add rec_ !acc;
    Lf_kernel.Lane.clear ()
  in
  let ds = List.init (domains - 1) (fun i -> Domain.spawn (fun () -> work (i + 1))) in
  work 0;
  List.iter Domain.join ds;
  ( Lf_lin.History.Recorder.history rec_,
    List.concat (Array.to_list pending) )

(* A history with c crashed (pending) operations linearizes iff SOME
   resolution of the pending ops does: each may have not taken effect at
   all, or taken effect (directly or via a helper) with either outcome.
   3^c combinations; keep c small. *)
let linearizable_with_pending ?init (history : Lf_lin.History.t)
    (pending : Lf_lin.History.t) : bool =
  let ret_max =
    1 + List.fold_left (fun m (e : Lf_lin.History.entry) -> max m e.ret) 0 history
  in
  let ok_verdict h =
    match Lf_lin.Checker.check ?init h with
    | Lf_lin.Checker.Linearizable -> true
    | Not_linearizable -> false
  in
  let rec go chosen = function
    | [] -> ok_verdict (history @ List.rev chosen)
    | (p : Lf_lin.History.entry) :: rest ->
        go chosen rest
        || go ({ p with ok = true; ret = ret_max } :: chosen) rest
        || go ({ p with ok = false; ret = ret_max } :: chosen) rest
  in
  go [] pending
