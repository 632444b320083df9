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
