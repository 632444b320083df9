(* Regression locks for the headline experiment shapes: miniature versions
   of EXP-1/2/3/9/13 run as assertions, and the skip-list tables of
   EXP-6/14/15 are pinned exactly, so a change that silently destroys one
   of the paper's reproduced results fails the test suite, not just a human
   reading bench output. *)

module Sim = Lf_dsim.Sim

let test_exp1_ratio_bounded () =
  (* Amortized bound: essential steps <= K * sum(n+c) with K well under 1
     for this counting. *)
  List.iter
    (fun (q, n0) ->
      let e, b, _ = Lf_scenarios.Scenarios.exp1_run ~q ~n0 ~seed:7 in
      let ratio = float_of_int e /. float_of_int (max 1 b) in
      if ratio > 1.0 then
        Alcotest.failf "EXP-1 ratio %.2f > 1 at q=%d n0=%d" ratio q n0)
    [ (2, 10); (4, 100); (8, 400) ]

let test_exp2_separation () =
  (* Harris recovery grows with n; FR stays constant. *)
  let fr_small, ha_small = Lf_scenarios.Scenarios.exp2_recovery ~n:32 in
  let fr_big, ha_big = Lf_scenarios.Scenarios.exp2_recovery ~n:256 in
  Alcotest.(check bool) "fr flat" true (fr_big <= fr_small *. 1.5);
  Alcotest.(check bool) "harris grows ~8x" true (ha_big >= ha_small *. 4.0);
  Alcotest.(check bool) "separation at n=256" true (ha_big >= fr_big *. 10.0)

let test_exp3_valois_linear () =
  let v_small, fr_small = Lf_scenarios.Scenarios.exp3_avg ~m:50 in
  let v_big, fr_big = Lf_scenarios.Scenarios.exp3_avg ~m:200 in
  Alcotest.(check bool) "valois grows ~4x" true (v_big >= v_small *. 2.5);
  Alcotest.(check bool) "fr flat" true (fr_big <= fr_small *. 1.5)

let test_exp9_helping_flat () =
  let nh_small, h_small = Lf_scenarios.Scenarios.exp9_avg ~m:25 in
  let nh_big, h_big = Lf_scenarios.Scenarios.exp9_avg ~m:100 in
  Alcotest.(check bool) "no-help grows" true (nh_big >= nh_small *. 2.0);
  Alcotest.(check bool) "help flat" true (h_big <= h_small *. 1.3)

let test_exp13_fraser_restarts () =
  let fr, fz = Lf_scenarios.Scenarios.exp13_recovery ~n:256 in
  Alcotest.(check bool) "fr local" true (fr <= 4.0);
  Alcotest.(check bool) "fraser restarts" true (fz >= fr *. 2.0)

module SLS = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (Lf_dsim.Sim_mem)

(* Run process 0 alone for its first [park] steps, then process 1 to
   completion, then process 0 to completion. *)
let parked park =
  let parked = ref false in
  Sim.Custom
    (fun st ->
      if (not !parked) && Sim.total_steps st < park && not (Sim.is_finished st 0)
      then Some 0
      else begin
        parked := true;
        if not (Sim.is_finished st 1) then Some 1
        else if not (Sim.is_finished st 0) then Some 0
        else None
      end)

(* The skip-list tables of EXPERIMENTS.md, pinned at the precision they are
   published with.  Each setup repeats its bench/expN.ml setup; the
   simulator is deterministic, so the values are exact and a change to the
   skip list's search steps fails here. *)

(* EXP-6: mean essential steps of 200 seeded searches over the keys 1..n,
   inserted with seeded coin-flip heights. *)
let exp6_search_cost n =
  let t = SLS.create_with ~max_level:20 () in
  let rng = Lf_kernel.Splitmix.create 7 in
  let rec height h =
    if h < 20 && Lf_kernel.Splitmix.bool rng then height (h + 1) else h
  in
  let fill _ =
    for i = 1 to n do
      ignore (SLS.insert_with_height t ~height:(height 1) i i)
    done
  in
  ignore (Sim.run [| fill |]);
  let r = Lf_kernel.Splitmix.create 99 in
  let search _ =
    for _ = 1 to 200 do
      Sim.op_begin ~n;
      ignore (SLS.mem t (1 + Lf_kernel.Splitmix.int r n));
      Sim.op_end ()
    done
  in
  float_of_int (Sim.total_essential (Sim.run [| search |])) /. 200.

let test_exp6_skiplist_table () =
  let costs =
    List.map
      (fun n -> (n, exp6_search_cost n))
      [ 16; 64; 256; 1024; 4096; 16384 ]
  in
  Alcotest.(check string)
    "steps per search at n=4096" "10.6"
    (Printf.sprintf "%.1f" (List.assoc 4096 costs));
  let pts =
    Array.of_list
      (List.map (fun (n, c) -> (log (float_of_int n) /. log 2.0, c)) costs)
  in
  let _, slope, _ = Lf_kernel.Stats.linear_fit pts in
  Alcotest.(check string) "steps per level" "1.03" (Printf.sprintf "%.2f" slope)

(* EXP-14, simulator column: 2 processes x 500 ops of 25i/25d/50s over 256
   keys, half prefilled.  [SLS.insert] draws tower heights from the calling
   domain's generator, which nothing else in this executable draws from,
   so the heights match the bench's. *)
let test_exp14_skiplist_sim () =
  let module D = Lf_workload.Sim_driver in
  let t = SLS.create_with ~max_level:12 () in
  let ops =
    D.
      {
        insert = (fun k -> SLS.insert t k k);
        delete = (fun k -> SLS.delete t k);
        find = (fun k -> SLS.mem t k);
      }
  in
  ignore (D.prefill ~key_range:256 ~count:128 ~seed:1 ops);
  let res =
    D.run_mixed ~policy:(Sim.Random 100) ~procs:2 ~ops_per_proc:500
      ~key_range:256 ~mix:{ insert_pct = 25; delete_pct = 25 } ~seed:100 ops
  in
  Alcotest.(check string)
    "sim steps per op" "8.3"
    (Printf.sprintf "%.1f"
       (float_of_int (Sim.total_essential res)
       /. float_of_int (List.length res.ops)))

(* EXP-15(b), F&R column: over n keys with trailing-zero heights capped at
   6, a height-1 predecessor and a height-8 victim tower; for every park
   point of a search past the victim, delete the victim and resume.  The
   overhead counts every memory action beyond the dearer of the
   interference-free searches before and after the deletion. *)
let exp15_fr_worst n =
  let v = (n / 2 * 2) + 100 in
  let build () =
    let t = SLS.create_with ~max_level:12 () in
    let ins h k = ignore (SLS.insert_with_height t ~height:h k k) in
    Sim.quiet (fun () ->
        for i = 1 to n do
          ins (min 6 (Lf_scenarios.Scenarios.tz_height i)) i
        done;
        ins 1 (v - 1);
        ins 8 v);
    ((fun _ -> ignore (SLS.mem t (v + 7))), fun _ -> ignore (SLS.delete t v))
  in
  let steps (r : Sim.result) =
    let c = r.per_proc.(0) in
    c.reads + c.writes + Lf_kernel.Counters.total_cas_attempts c
  in
  let solo =
    let search, _ = build () in
    let before = steps (Sim.run [| search |]) in
    let search, delete = build () in
    ignore (Sim.run [| delete |]);
    max before (steps (Sim.run [| search |]))
  in
  let worst = ref 0 in
  for park = 0 to solo do
    let search, delete = build () in
    let r = Sim.run ~policy:(parked park) [| search; delete |] in
    worst := max !worst (steps r - solo)
  done;
  !worst

let test_exp15_fr_interference () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "F&R max overhead at n=%d" n)
        11 (exp15_fr_worst n))
    [ 64; 256; 1024 ]

(* Section 4's "contrived scenario": a search may descend into a node whose
   tower is deleted mid-descent, and must still produce correct results by
   traversing through the marked region. *)
let test_descend_through_deleted_tower () =
  (* The searcher for 30 descends via tower 10 (the only tall one).  Park
     it mid-descent after a few steps, delete tower 10 entirely, resume:
     the searcher sits in a fully deleted tower and must still find 30. *)
  for park = 1 to 12 do
    let t = SLS.create_with ~max_level:4 () in
    Sim.quiet (fun () ->
        ignore (SLS.insert_with_height t ~height:3 10 0);
        ignore (SLS.insert_with_height t ~height:1 20 0);
        ignore (SLS.insert_with_height t ~height:1 30 0));
    let found = ref false in
    let searcher _ = found := SLS.mem t 30 in
    let deleter _ = ignore (SLS.delete t 10) in
    ignore (Sim.run ~policy:(parked park) [| searcher; deleter |]);
    if not !found then Alcotest.failf "search missed key 30 (park=%d)" park;
    Sim.quiet (fun () ->
        Alcotest.(check (list (pair int int)))
          "final" [ (20, 0); (30, 0) ] (SLS.to_list t))
  done

let () =
  Alcotest.run "experiments"
    [
      ( "shape locks",
        [
          Alcotest.test_case "exp1 ratio bounded" `Slow test_exp1_ratio_bounded;
          Alcotest.test_case "exp2 harris vs fr" `Slow test_exp2_separation;
          Alcotest.test_case "exp3 valois linear" `Slow test_exp3_valois_linear;
          Alcotest.test_case "exp9 helping flat" `Slow test_exp9_helping_flat;
          Alcotest.test_case "exp13 fraser restarts" `Slow
            test_exp13_fraser_restarts;
        ] );
      ( "skip-list tables",
        [
          Alcotest.test_case "exp6 search cost" `Quick test_exp6_skiplist_table;
          Alcotest.test_case "exp14 sim steps" `Quick test_exp14_skiplist_sim;
          Alcotest.test_case "exp15 F&R interference" `Quick
            test_exp15_fr_interference;
        ] );
      ( "section 4 scenarios",
        [
          Alcotest.test_case "descend through deleted tower" `Quick
            test_descend_through_deleted_tower;
        ] );
    ]
