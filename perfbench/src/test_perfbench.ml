(* The benchmark's own checks: its word accounting sees the major heap,
   its counted replay repeats exactly, and its seeds change the stream. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* A timed call that allocates a block too big for the minor heap is
   charged at least that block's words as direct major words. *)
let major_block_is_charged () =
  let c =
    Ledger.measure (fun () -> ignore (Sys.opaque_identity (Array.make 10_000 0)))
  in
  check
    (Printf.sprintf "Array.make 10_000 charged %.0f major words" c.Ledger.major)
    (c.Ledger.major >= 10_000.);
  let small = Ledger.measure (fun () -> ignore (Sys.opaque_identity (ref 0))) in
  check
    (Printf.sprintf "a ref is minor (%.0f minor, %.0f major)" small.Ledger.minor
       small.Ledger.major)
    (small.Ledger.major = 0. && small.Ledger.minor >= 2.)

(* The same through the traced replay's spans: the block is charged to
   the span that allocated it, not to its parent. *)
let major_block_is_charged_to_its_span () =
  let tr = Spans.create ~words:true 64 in
  let root = Spans.root tr ~req:0 in
  let s = Spans.enter tr Spans.svc_call in
  ignore (Sys.opaque_identity (Array.make 10_000 0));
  Spans.leave tr s;
  let s = Spans.enter tr Spans.skiplist_find in
  ignore (Sys.opaque_identity (ref 0));
  Spans.leave tr s;
  Spans.leave tr root;
  let mi, ma = Spans.self_words tr in
  check
    (Printf.sprintf "svc.call span charged %.0f major words" ma.(Spans.svc_call))
    (ma.(Spans.svc_call) >= 10_000.);
  check
    (Printf.sprintf "parent span charged %.0f major, %.0f minor words"
       ma.(Spans.request) mi.(Spans.request))
    (ma.(Spans.request) = 0. && mi.(Spans.request) = 0.);
  check
    (Printf.sprintf "skiplist.find span charged %.0f minor words" mi.(Spans.skiplist_find))
    (mi.(Spans.skiplist_find) = 2.)

let counted_replay_repeats () =
  let w = Workload.kv_lockstep in
  let a = Ledger.counted w ~seed:7 ~lines:2000 in
  let b = Ledger.counted w ~seed:7 ~lines:2000 in
  check
    (Printf.sprintf "counted replay repeats (steps %.3f reads %.3f cas %.3f)"
       a.steps a.reads a.cas)
    (a = b && a.steps > 0.)

let seed_changes_stream () =
  List.iter
    (fun (w : Workload.t) ->
      let s seed = Array.map Workload.to_string (Workload.replay_stream w ~seed 200) in
      check (w.name ^ ": same seed, same lines") (s 7 = s 7);
      check (w.name ^ ": other seed, other lines") (s 7 <> s 8);
      check (w.name ^ ": same seed, same preload")
        (Workload.preload_keys w ~seed:7 = Workload.preload_keys w ~seed:7))
    Workload.all

(* The oracle accepts the right answers and rejects a wrong one. *)
let oracle () =
  let w = Workload.kv_lockstep in
  let m = Workload.model w ~preloaded:[| 5 |] in
  let get k = { Workload.kind = Workload.Get; keys = [| k |] } in
  let put k = { Workload.kind = Workload.Put; keys = [| k |] } in
  check "oracle: GET preloaded is true" (Workload.check m (get 5) "OK true");
  check "oracle: rejected write leaves the model"
    (not (Workload.check m (put 6) "REJECTED queue-full"));
  check "oracle: GET after rejected PUT is false" (Workload.check m (get 6) "OK false");
  check "oracle: wrong answer raises"
    (match Workload.check m (get 5) "OK false" with
    | _ -> false
    | exception Workload.Wrong_answer _ -> true)

let () =
  major_block_is_charged ();
  major_block_is_charged_to_its_span ();
  counted_replay_repeats ();
  seed_changes_stream ();
  oracle ();
  if !failures > 0 then exit 1
