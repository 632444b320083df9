(* Shared helpers for the test suite. *)

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A scripted sequence of dictionary operations, the common random input of
   the oracle tests: (op tag, key) pairs over a small key space. *)
let ops_gen ~key_range ~len =
  QCheck2.Gen.(
    list_size (int_bound len)
      (pair (int_bound 2) (int_bound (key_range - 1))))

(* Run a (op, key) script against both an implementation (via closures) and
   a Hashtbl oracle; fail on the first divergence.  Returns the final oracle
   contents, sorted. *)
let run_against_oracle script ~insert ~delete ~find =
  let oracle = Hashtbl.create 64 in
  List.iteri
    (fun i (tag, k) ->
      match tag with
      | 0 ->
          let expected = not (Hashtbl.mem oracle k) in
          let got = insert k k in
          if got <> expected then
            Alcotest.failf "op %d: insert %d returned %b (oracle %b)" i k got
              expected;
          if got then Hashtbl.replace oracle k k
      | 1 ->
          let expected = Hashtbl.mem oracle k in
          let got = delete k in
          if got <> expected then
            Alcotest.failf "op %d: delete %d returned %b (oracle %b)" i k got
              expected;
          Hashtbl.remove oracle k
      | _ ->
          let expected = Hashtbl.find_opt oracle k in
          let got = find k in
          if got <> expected then
            Alcotest.failf "op %d: find %d disagreed with oracle" i k)
    script;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) oracle [])

(* All (op,key) scripts as a qcheck generator-based oracle test for a DICT
   implementation. *)
module type INT_DICT = Lf_kernel.Dict_intf.S with type key = int

let oracle_test ?count (module D : INT_DICT) =
  qcheck ?count
    (Printf.sprintf "%s agrees with oracle" D.name)
    (ops_gen ~key_range:16 ~len:120)
    (fun script ->
      let t = D.create () in
      let expected =
        run_against_oracle script
          ~insert:(fun k v -> D.insert t k v)
          ~delete:(fun k -> D.delete t k)
          ~find:(fun k -> D.find t k)
      in
      D.check_invariants t;
      D.to_list t = expected && D.length t = List.length expected)

(* Assert a history is linearizable, pretty-printing it on failure. *)
let assert_linearizable h =
  match Lf_lin.Checker.check h with
  | Lf_lin.Checker.Linearizable -> ()
  | Lf_lin.Checker.Not_linearizable ->
      Alcotest.failf "history not linearizable:@\n%a" Lf_lin.History.pp h

(* Words [f ()] allocates: (minor, direct major).  Direct major is major
   minus promoted (from [Gc.counters]): blocks allocated straight into the
   major heap, which a minor-words-only count never sees.  Minor words come
   from [Gc.minor_words]: on OCaml 5.1 the minor count of [Gc.counters]
   lags within a minor-heap cycle, so a short window under-reads (a
   20k-cons loop reads 0.38 words per cons instead of 3). *)
let words f =
  Gc.minor ();
  let mi0 = Gc.minor_words () and _, pr0, ma0 = Gc.counters () in
  f ();
  let mi1 = Gc.minor_words () and _, pr1, ma1 = Gc.counters () in
  (mi1 -. mi0, ma1 -. ma0 -. (pr1 -. pr0))

(* Live heap words after a full major collection: what a structure keeps
   reachable, as opposed to what it allocated. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

(* Words per op of a seeded 1-domain op stream over [2 * preload] keys
   against a structure preloaded with every even key: [find_pct]% finds,
   the rest split evenly between inserts and deletes.  Kinds and keys are
   drawn up front so the measured loop allocates only what the structure
   does.  Returns (minor, direct major) words per op. *)
let mix_words (module D : INT_DICT) ~preload ~find_pct =
  let t = D.create () in
  for k = 0 to preload - 1 do
    ignore (D.insert t (2 * k) k)
  done;
  let n = 20_000 in
  let rng = Lf_kernel.Splitmix.create 13 in
  let kinds = Array.init n (fun _ -> Lf_kernel.Splitmix.int rng 100) in
  let keys = Array.init n (fun _ -> Lf_kernel.Splitmix.int rng (2 * preload)) in
  let ins = find_pct + ((100 - find_pct) / 2) in
  let run () =
    for i = 0 to n - 1 do
      let k = keys.(i) and c = kinds.(i) in
      if c < find_pct then ignore (Sys.opaque_identity (D.find t k))
      else if c < ins then ignore (D.insert t k k)
      else ignore (D.delete t k)
    done
  in
  run ();
  let minor, major = words run in
  D.check_invariants t;
  (minor /. float_of_int n, major /. float_of_int n)

(* Retention under churn: unlinked nodes must become garbage.  Preload
   [preload] distinct keys drawn from a seeded stream over [0, key_range),
   then run [ops] seeded 50/50 inserts and deletes, 90% of them on the
   lowest tenth of the keys.  Fails unless the live words per live key
   that the structure adds to the heap stay within 1.5x of their value
   right after the preload.  Per-node descriptor caches that name deleted
   neighbours grew this figure severalfold. *)
let check_retention (module D : INT_DICT) ~key_range ~preload ~ops =
  let rng = Lf_kernel.Splitmix.create 29 in
  let draw range = Lf_kernel.Splitmix.int rng range in
  let base = live_words () in
  let t = D.create () in
  let per_key () =
    float_of_int (live_words () - base) /. float_of_int (D.length t)
  in
  let n = ref 0 in
  while !n < preload do
    if D.insert t (draw key_range) 0 then incr n
  done;
  let preloaded = per_key () in
  for _ = 1 to ops do
    let k = if draw 10 < 9 then draw (key_range / 10) else draw key_range in
    if draw 2 = 0 then ignore (D.insert t k 0) else ignore (D.delete t k)
  done;
  D.check_invariants t;
  let churned = per_key () in
  Printf.printf "live words/key: %.1f after preload, %.1f after churn\n"
    preloaded churned;
  Alcotest.(check bool)
    (Printf.sprintf "live words/key %.1f <= 1.5 x %.1f" churned preloaded)
    true
    (churned <= 1.5 *. preloaded)

(* A pipeline config the way [lfdict serve] builds it (deadline, retry +
   budget, shed, breaker; no decision log) on a manual nanosecond clock,
   plus the clock's advance: the allocation gates of test_svc and
   test_shard share it. *)
let serve_like_config () =
  let module Svc = Lf_svc.Svc in
  let clock, advance = Lf_svc.Clock.manual ~ticks_per_ms:1_000_000 () in
  let ms = Lf_svc.Clock.ms clock in
  let cfg =
    Svc.config ~clock ~deadline:(ms 50)
      ~retry:(Some (Lf_svc.Retry.policy ~max_attempts:3 ~base_delay:(ms 1) ()))
      ~budget:
        (Lf_svc.Retry.Budget.config ~capacity:100 ~refill_every:(ms 100) ())
      ~shed:(Some (Lf_svc.Shed.config ~max_queue:128 ~est_init:(ms 1) ()))
      ~breaker:
        (Some
           (Lf_svc.Breaker.config ~window:(ms 1000) ~latency_threshold:(ms 100)
              ~open_for:(ms 1000) ()))
      ()
  in
  (cfg, advance)

(* The 64 requests the serve-shaped gates cycle through: finds, inserts
   and deletes in turn. *)
let serve_like_reqs =
  Array.init 64 (fun i ->
      match i mod 3 with
      | 0 -> Lf_svc.Svc.Find i
      | 1 -> Lf_svc.Svc.Insert (i, i)
      | _ -> Lf_svc.Svc.Delete i)
