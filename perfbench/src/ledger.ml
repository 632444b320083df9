(* The per-layer half of the benchmark: replay a workload's seeded line
   stream in process through each layer's public functions, each layer
   configured as [lfdict serve] configures it.

   - An untraced pass of the whole stack, composed as serve composes
     it, gives the per-request time distribution and words, and checks
     every reply against the oracle.
   - Traced passes record a span at every layer boundary ([Spans]);
     layer self times and self words come from them.  Each composition
     runs twice, once timing only and once also reading the GC counters
     at every boundary, so the counter reads never inflate the times.
     On the sharded workload a single Svc runs the same stream as well,
     so the router's overhead over a bare pipeline is measured.  The
     single-instance workloads have no router, and its metrics are 0.
   - A counted pass over [Counting_mem] gives exact step counts.

   Words are minor words plus direct major-heap words (major minus
   promoted), so a layer that allocates big blocks straight into the
   major heap is charged for them.  Every pass starts on a freshly
   preloaded structure. *)

module W = Workload
module D = Lf_skiplist.Fr_skiplist.Atomic_int
module CM = Lf_kernel.Counting_mem
module CD = Lf_skiplist.Fr_skiplist.Make (Lf_kernel.Ordered.Int) (CM)
module Svc = Lf_svc.Svc
module Wire = Lf_svc.Wire
module Router = Lf_shard.Router
module Rec = Lf_obs.Recorder
module Ev = Lf_obs.Obs_event
module Span = Lf_obs.Span

(* ---- time and words ---------------------------------------------------- *)

type cost = { ns : float; minor : float; major : float }

(* Direct major words are [Gc.counters]' major minus promoted.  Minor
   words come from [Gc.minor_words]: on OCaml 5.1 [Gc.counters] divides
   the live minor-heap pointer distance by the word size a second time,
   so its minor count under-reports the current minor heap eightfold. *)
let counters () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words (), major -. promoted)

let raw_measure f =
  let mi0, ma0 = counters () in
  let t0 = Bclock.now_ns () in
  f ();
  let t1 = Bclock.now_ns () in
  let mi1, ma1 = counters () in
  { ns = float_of_int (t1 - t0); minor = mi1 -. mi0; major = ma1 -. ma0 }

(* What the bracketing itself allocates (its own result tuple). *)
let bracket_words =
  lazy
    (List.fold_left min infinity
       (List.init 5 (fun _ -> (raw_measure ignore).minor)))

(* Time and words of [f ()], the bracket's own words excluded. *)
let measure f =
  let c = raw_measure f in
  { c with minor = c.minor -. Lazy.force bracket_words }

(* ---- the layers as serve configures them -------------------------------- *)

let clock = Lf_svc.Clock.real ()
let ms = Lf_svc.Clock.ms clock
let now () = Lf_svc.Clock.now clock

(* [lfdict serve]'s Svc config for this workload's flags. *)
let svc_config (w : W.t) =
  let deadline_ms, retry, budget, shed, breaker =
    if w.pipeline then (50, 3, 100, 128, true) else (0, 0, 0, 0, false)
  in
  Svc.config ~clock
    ~deadline:(if deadline_ms <= 0 then max_int else ms deadline_ms)
    ~retry:
      (if retry <= 0 then None
       else Some (Lf_svc.Retry.policy ~max_attempts:retry ~base_delay:(ms 1) ()))
    ~budget:
      (if budget <= 0 then Lf_svc.Retry.Budget.unlimited
       else Lf_svc.Retry.Budget.config ~capacity:budget ~refill_every:(ms 100) ())
    ~shed:
      (if shed <= 0 then None
       else Some (Lf_svc.Shed.config ~max_queue:shed ~est_init:(ms 1) ()))
    ~breaker:
      (if not breaker then None
       else
         Some
           (Lf_svc.Breaker.config ~window:(ms 1000) ~latency_threshold:(ms 100)
              ~open_for:(ms 1000) ()))
    ~backoff:(fun d -> Unix.sleepf (float_of_int d /. 1e9))
    ()

(* serve's SLO: 99% good over 5s and 60s windows, quarter-second buckets. *)
let serve_slo () =
  Lf_obs.Slo.create ~target:0.99 ~bucket:(ms 250)
    ~windows:[ ms 5_000; ms 60_000 ]
    ()

(* serve sets the recorder to Histograms on the real clock. *)
let serve_recorder () =
  Rec.set_level Rec.Off;
  Rec.reset ();
  Rec.set_clock Rec.Real;
  Rec.set_level Rec.Histograms

let fresh_skiplist keys =
  let t = D.create () in
  Array.iter (fun k -> ignore (D.insert t k (W.value_of k))) keys;
  t

(* The closures serve's single instance hands to Svc ([svc_ops] in
   bin/lfdict.ml): a recorder span around each structure operation.
   With [tr], the same closures open [backend.<op>] spans with
   [obs.recorder] and [skiplist.<op>] children. *)
let svc_ops ?tr t : Svc.ops =
  match tr with
  | None ->
      let span op key f =
        Rec.span_begin ~op ~key;
        let ok = f () in
        Rec.span_end ~op ~ok;
        ok
      in
      {
        insert = (fun k v -> span Ev.Insert k (fun () -> D.insert t k v));
        delete = (fun k -> span Ev.Delete k (fun () -> D.delete t k));
        find = (fun k -> span Ev.Find k (fun () -> Option.is_some (D.find t k)));
      }
  | Some tr ->
      let span bname sname op key f =
        let b = Spans.enter tr bname in
        let r = Spans.enter tr Spans.obs_recorder in
        Rec.span_begin ~op ~key;
        Spans.leave tr r;
        let s = Spans.enter tr sname in
        let ok = f () in
        Spans.leave tr s;
        let r = Spans.enter tr Spans.obs_recorder in
        Rec.span_end ~op ~ok;
        Spans.leave tr r;
        Spans.leave tr b;
        ok
      in
      {
        insert =
          (fun k v ->
            span Spans.backend_insert Spans.skiplist_insert Ev.Insert k (fun () ->
                D.insert t k v));
        delete =
          (fun k ->
            span Spans.backend_delete Spans.skiplist_delete Ev.Delete k (fun () ->
                D.delete t k));
        find =
          (fun k ->
            span Spans.backend_find Spans.skiplist_find Ev.Find k (fun () ->
                Option.is_some (D.find t k)));
      }

(* serve's per-shard backend ([mk_backend] in bin/lfdict.ml): the KILL
   guard, then a recorder span around the structure operation. *)
let router_backend ?tr kills i t : Router.backend =
  let guard f = if kills.(i) then failwith "shard killed" else f () in
  match tr with
  | None ->
      let span op key ok f =
        Rec.span_begin ~op ~key;
        let r = f () in
        Rec.span_end ~op ~ok:(ok r);
        r
      in
      {
        Router.insert =
          (fun k v ->
            guard (fun () -> span Ev.Insert k Fun.id (fun () -> D.insert t k v)));
        delete =
          (fun k -> guard (fun () -> span Ev.Delete k Fun.id (fun () -> D.delete t k)));
        find =
          (fun k ->
            guard (fun () -> span Ev.Find k Option.is_some (fun () -> D.find t k)));
        batched = None;
      }
  | Some tr ->
      let span bname sname op key ok f =
        let b = Spans.enter tr bname in
        let r = Spans.enter tr Spans.obs_recorder in
        Rec.span_begin ~op ~key;
        Spans.leave tr r;
        let s = Spans.enter tr sname in
        let res = f () in
        Spans.leave tr s;
        let r = Spans.enter tr Spans.obs_recorder in
        Rec.span_end ~op ~ok:(ok res);
        Spans.leave tr r;
        Spans.leave tr b;
        res
      in
      {
        Router.insert =
          (fun k v ->
            guard (fun () ->
                span Spans.backend_insert Spans.skiplist_insert Ev.Insert k Fun.id
                  (fun () -> D.insert t k v)));
        delete =
          (fun k ->
            guard (fun () ->
                span Spans.backend_delete Spans.skiplist_delete Ev.Delete k Fun.id
                  (fun () -> D.delete t k)));
        find =
          (fun k ->
            guard (fun () ->
                span Spans.backend_find Spans.skiplist_find Ev.Find k Option.is_some
                  (fun () -> D.find t k)));
        batched = None;
      }

(* What serve's dispatch needs from either server shape. *)
type shape = {
  op : Span.ctx -> Svc.req -> Svc.outcome;
  multi : Span.ctx -> Svc.req list -> Svc.outcome list;
  call_span : int;  (** [svc.call] or [router.call] *)
  svc_stats : unit -> Svc.stats list;
  router : Router.t option;
  hints : unit -> int * int;  (** path-cache (hits, lookups) so far *)
}

let hint_totals ds () =
  Array.fold_left
    (fun (h, l) t ->
      match D.hint_stats t with
      | Some (s : Lf_kernel.Hint.stats) -> (h + s.hits, l + s.hits + s.stale + s.misses)
      | None -> (h, l))
    (0, 0) ds

let single ?tr (w : W.t) keys =
  let t = fresh_skiplist keys in
  let svc = Svc.create (svc_config w) (svc_ops ?tr t) in
  {
    op = (fun ctx req -> Svc.call svc ~ctx req);
    multi = (fun ctx reqs -> Svc.call_many svc ~ctx reqs);
    call_span = Spans.svc_call;
    svc_stats = (fun () -> [ Svc.stats svc ]);
    router = None;
    hints = hint_totals [| t |];
  }

let sharded ?tr (w : W.t) ~shards keys =
  let ds = Array.init shards (fun _ -> D.create ()) in
  let kills = Array.make shards false in
  let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards () in
  let cfg = svc_config w in
  let router =
    Router.create ~ring ~svc_config:(fun _ -> cfg) (fun i ->
        router_backend ?tr kills i ds.(i))
  in
  Array.iter
    (fun k -> ignore (D.insert ds.(Router.route router k) k (W.value_of k)))
    keys;
  {
    op = (fun ctx req -> Router.call router ~ctx req);
    multi = (fun ctx reqs -> Router.call_many router ~ctx reqs);
    call_span = Spans.router_call;
    svc_stats = (fun () -> Array.to_list (Router.stats router));
    router = Some router;
    hints = hint_totals ds;
  }

(* The shape serve builds for this workload. *)
let serve_shape ?tr (w : W.t) keys =
  if w.shards <= 1 then single ?tr w keys else sharded ?tr w ~shards:w.shards keys

(* ---- serve's per-line dispatch ------------------------------------------ *)

let good = function
  | Svc.Served _ | Svc.Served_stale _ -> true
  | Svc.Rejected _ | Svc.Failed _ -> false

(* The body of serve's accept loop for one data line, without the socket:
   parse, run under the (inactive) request span, feed the SLO, format. *)
let serve_line sh slo line =
  let traced f =
    let ctx = Span.nil in
    let outcomes = f ctx in
    let ok = List.for_all good outcomes in
    Span.end_ ctx ~now:(now ()) ~ok;
    List.iter (fun o -> Lf_obs.Slo.observe slo ~now:(now ()) ~good:(good o)) outcomes;
    outcomes
  in
  match Wire.parse line with
  | Error e -> Wire.format_error e
  | Ok (Wire.Op req) -> (
      match traced (fun ctx -> [ sh.op ctx req ]) with
      | [ o ] -> Wire.format_outcome o
      | _ -> assert false)
  | Ok (Wire.Multi reqs) -> Wire.format_multi (traced (fun ctx -> sh.multi ctx reqs))
  | Ok _ -> invalid_arg "serve_line: not a data line"

(* The same dispatch with a span at every layer boundary. *)
let serve_line_traced tr sh slo ~req line =
  let root = Spans.root tr ~req in
  let s = Spans.enter tr Spans.wire_parse in
  let parsed = Wire.parse line in
  Spans.leave tr s;
  let call f =
    let s = Spans.enter tr sh.call_span in
    let outcomes = f Span.nil in
    Spans.leave tr s;
    let s = Spans.enter tr Spans.obs_slo in
    let ok = List.for_all good outcomes in
    Span.end_ Span.nil ~now:(now ()) ~ok;
    List.iter (fun o -> Lf_obs.Slo.observe slo ~now:(now ()) ~good:(good o)) outcomes;
    Spans.leave tr s;
    outcomes
  in
  let format f x =
    let s = Spans.enter tr Spans.wire_format in
    let r = f x in
    Spans.leave tr s;
    r
  in
  let reply =
    match parsed with
    | Error e -> Wire.format_error e
    | Ok (Wire.Op req) -> (
        match call (fun ctx -> [ sh.op ctx req ]) with
        | [ o ] -> format Wire.format_outcome o
        | _ -> assert false)
    | Ok (Wire.Multi reqs) -> format Wire.format_multi (call (fun ctx -> sh.multi ctx reqs))
    | Ok _ -> invalid_arg "serve_line_traced: not a data line"
  in
  Spans.leave tr root;
  reply

(* ---- passes --------------------------------------------------------------- *)

(* Start every pass from a collected heap, so earlier garbage (previous
   passes, the preload) is not collected on this pass's time. *)
let fresh_pass () = Gc.full_major ()

(* The whole stack per line, untraced, as serve composes it; every reply
   is checked against the oracle. *)
let pass_stack w strs lines keys =
  let sh = serve_shape w keys in
  let slo = serve_slo () in
  fresh_pass ();
  let m = W.model w ~preloaded:keys in
  let n = Array.length strs in
  let per_line = Array.make n 0 in
  let replies = Array.make n "" in
  let c =
    measure (fun () ->
        for i = 0 to n - 1 do
          let t0 = Bclock.now_ns () in
          replies.(i) <- serve_line sh slo strs.(i);
          per_line.(i) <- Bclock.now_ns () - t0
        done)
  in
  let errors = ref 0 in
  Array.iteri (fun i r -> if not (W.check m lines.(i) r) then incr errors) replies;
  Array.sort Int.compare per_line;
  (c, per_line, !errors, sh)

(* One traced pass: a span at every layer boundary, timing only or
   (with [words]) words too. *)
let pass_traced ~words mk strs cap =
  let tr = Spans.create ~words cap in
  let sh = mk tr in
  let h0 = sh.hints () in
  let slo = serve_slo () in
  fresh_pass ();
  let t0 = Bclock.now_ns () in
  Array.iteri (fun req s -> ignore (serve_line_traced tr sh slo ~req s)) strs;
  let total = Bclock.now_ns () - t0 in
  let h1 = sh.hints () in
  (tr, total, sh, (fst h1 - fst h0, snd h1 - snd h0))

(* Serve's tower heights come from a domain-local coin; the counted
   replay draws them from the seed instead (same geometric law, capped
   at the default 24 levels), so its counts repeat exactly. *)
type counted = { steps : float; reads : float; cas : float }

let counted w ~seed ~lines =
  let lines = W.replay_stream w ~seed lines in
  let keys = W.preload_keys w ~seed in
  let rng = W.rng_for w ~seed ~salt:997 in
  let height () =
    let rec go h = if h < 24 && Lf_kernel.Splitmix.bool rng then go (h + 1) else h in
    go 1
  in
  let t = CD.create () in
  Array.iter
    (fun k -> ignore (CD.insert_with_height t ~height:(height ()) k (W.value_of k)))
    keys;
  CM.reset_all ();
  Array.iter
    (fun (l : W.line) ->
      Array.iter
        (fun k ->
          match l.kind with
          | W.Get | W.Mget -> ignore (CD.find t k)
          | W.Put | W.Mset ->
              ignore (CD.insert_with_height t ~height:(height ()) k (W.value_of k))
          | W.Del -> ignore (CD.delete t k))
        l.keys)
    lines;
  let c = CM.grand_total () in
  let ops = float_of_int (max 1 (W.key_ops lines)) in
  {
    steps = float_of_int (Lf_kernel.Counters.essential_steps c) /. ops;
    reads = float_of_int c.Lf_kernel.Counters.reads /. ops;
    cas = float_of_int (Lf_kernel.Counters.total_cas_attempts c) /. ops;
  }

(* ---- the ledger ------------------------------------------------------------ *)

type t = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  table : string list;  (** human-readable rows *)
  errors : int;
}

let sum_stats (ss : Svc.stats list) =
  List.fold_left
    (fun (calls, rej, retries, trans) (s : Svc.stats) ->
      ( calls + s.calls,
        rej + List.fold_left (fun a (_, n) -> a + n) 0 s.rejected,
        retries + s.retries,
        trans + List.length s.transitions ))
    (0, 0, 0, 0) ss

let skiplist_ids = [ Spans.skiplist_insert; Spans.skiplist_delete; Spans.skiplist_find ]
let backend_ids = [ Spans.backend_insert; Spans.backend_delete; Spans.backend_find ]

let run ?spans_path (w : W.t) ~seed =
  serve_recorder ();
  let lines = W.replay_stream w ~seed w.replay_lines in
  let strs = Array.map W.to_string lines in
  let keys = W.preload_keys w ~seed in
  let nl = Array.length lines in
  let nk = W.key_ops lines in
  let stack, per_line, errors, stack_sh = pass_stack w strs lines keys in
  let cnt = counted w ~seed ~lines:w.replay_lines in
  (* Room for every span without growing: root, parse, call, slo and
     format per line, four per key operation, and slack for retries. *)
  let cap = Array.fold_left (fun a (l : W.line) -> a + 6 + (5 * Array.length l.keys)) 0 lines in
  let serve_mk tr = serve_shape ~tr w keys in
  let tr_s, traced_total, _, (hits, looks) = pass_traced ~words:false serve_mk strs cap in
  let wr_s, _, _, _ = pass_traced ~words:true serve_mk strs cap in
  (match spans_path with
  | Some path -> Spans.write tr_s ~path ~max_req:2000
  | None -> ());
  let ns_s = Spans.self_times tr_s in
  let mi_s, ma_s = Spans.self_words wr_s in
  let ns_o, (mi_o, ma_o) =
    if w.shards <= 1 then (ns_s, (mi_s, ma_s))
    else begin
      let single_mk tr = single ~tr w keys in
      let tr_o, _, _, _ = pass_traced ~words:false single_mk strs cap in
      let wr_o, _, _, _ = pass_traced ~words:true single_mk strs cap in
      (Spans.self_times tr_o, Spans.self_words wr_o)
    end
  in
  (* A layer's numbers come from whichever pass ran it: router.call from
     serve's sharded pass, svc.call from the single-instance pass. *)
  let from_s id = ns_s.(id) > 0 in
  let ns id = float_of_int (if from_s id then ns_s.(id) else ns_o.(id)) in
  let mi id = if from_s id then mi_s.(id) else mi_o.(id) in
  let ma id = if from_s id then ma_s.(id) else ma_o.(id) in
  let sum f ids = List.fold_left (fun a id -> a +. f id) 0. ids in
  let per_op x = x /. float_of_int (max 1 nk) in
  let per_req x = x /. float_of_int (max 1 nl) in
  let svc_ns = per_op (ns Spans.svc_call) and router_ns = per_op (ns Spans.router_call) in
  let calls, rej, retries, trans = sum_stats (stack_sh.svc_stats ()) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let batch_lines = List.filter (fun (l : W.line) -> W.is_batch l.kind) (Array.to_list lines) in
  let shards_per_batch, hedged =
    match stack_sh.router with
    | None -> (0., 0)
    | Some router ->
        let fan (l : W.line) =
          List.length
            (List.sort_uniq Int.compare
               (Array.to_list (Array.map (Router.route router) l.keys)))
        in
        ( ratio (List.fold_left (fun a l -> a + fan l) 0 batch_lines) (List.length batch_lines),
          Array.fold_left (fun a (att, _) -> a + att) 0 (Router.hedge_stats router) )
  in
  let untraced_mean = stack.ns /. float_of_int nl in
  let traced_mean = float_of_int traced_total /. float_of_int nl in
  let metrics =
    [
      ("wire.parse_ns", per_req (ns Spans.wire_parse), "ns");
      ("wire.format_ns", per_req (ns Spans.wire_format), "ns");
      ("wire.minor_words_per_req", per_req (sum mi [ Spans.wire_parse; Spans.wire_format ]), "words");
      ("wire.major_words_per_req", per_req (sum ma [ Spans.wire_parse; Spans.wire_format ]), "words");
      ("svc.self_ns_per_op", svc_ns, "ns");
      ("svc.minor_words_per_op", per_op (mi Spans.svc_call), "words");
      ("svc.major_words_per_op", per_op (ma Spans.svc_call), "words");
      ("svc.rejected_ratio", ratio rej calls, "ratio");
      ("svc.retries_per_op", ratio retries calls, "count");
      ("svc.breaker_transitions", float_of_int trans, "count");
      ("router.self_ns_per_op", router_ns, "ns");
      ( "router.overhead_ns_per_op",
        (if Option.is_none stack_sh.router then 0. else router_ns -. svc_ns),
        "ns" );
      ("router.major_words_per_op", per_op (ma Spans.router_call), "words");
      ("router.shards_per_batch", shards_per_batch, "count");
      ("router.hedged_reads", float_of_int hedged, "count");
      ("skiplist.ns_per_op", per_op (sum ns skiplist_ids), "ns");
      ("skiplist.minor_words_per_op", per_op (sum mi skiplist_ids), "words");
      ("skiplist.major_words_per_op", per_op (sum ma skiplist_ids), "words");
      ("skiplist.steps_per_op", cnt.steps, "steps");
      ("skiplist.reads_per_op", cnt.reads, "count");
      ("skiplist.cas_per_op", cnt.cas, "count");
      ("skiplist.hint_hit_ratio", ratio hits looks, "ratio");
      ("obs.recorder_ns_per_op", per_op (ns Spans.obs_recorder), "ns");
      ( "obs.recorder_words_per_op",
        per_op (mi Spans.obs_recorder +. ma Spans.obs_recorder),
        "words" );
      ("obs.slo_ns_per_req", per_req (ns Spans.obs_slo), "ns");
      ("stack.ns_per_req_p50", Tcpdrive.percentile per_line 0.5, "ns");
      ("stack.ns_per_req_p99", Tcpdrive.percentile per_line 0.99, "ns");
      ("stack.minor_words_per_req", per_req stack.minor, "words");
      ("stack.major_words_per_req", per_req stack.major, "words");
      ("trace.overhead_ratio", traced_mean /. untraced_mean, "ratio");
    ]
  in
  (* Serve's composition, layer by layer: self time and words per
     request, summing to the traced request. *)
  let layers =
    [
      ("request (glue)", [ Spans.request ]);
      ("wire.parse", [ Spans.wire_parse ]);
      ((if w.shards <= 1 then "svc.call" else "router.call"), [ Spans.svc_call; Spans.router_call ]);
      ("backend closures", backend_ids);
      ("obs.recorder", [ Spans.obs_recorder ]);
      ("skiplist", skiplist_ids);
      ("obs.slo", [ Spans.obs_slo ]);
      ("wire.format", [ Spans.wire_format ]);
    ]
  in
  let row name ns minor major =
    Printf.sprintf "  %-26s %11.0f ns %9.1f minor %9.1f major" name ns minor major
  in
  let sums = ref (0., 0., 0.) in
  let layer_rows =
    List.map
      (fun (name, ids) ->
        let t = per_req (sum (fun id -> float_of_int ns_s.(id)) ids) in
        let a = per_req (sum (fun id -> mi_s.(id)) ids) in
        let b = per_req (sum (fun id -> ma_s.(id)) ids) in
        let x, y, z = !sums in
        sums := (x +. t, y +. a, z +. b);
        row name t a b)
      layers
  in
  let st, sa, sb = !sums in
  let table =
    (Printf.sprintf "traced self time and words per request (%d lines, %d key ops)" nl nk
     :: layer_rows)
    @ [
        row "sum of layers" st sa sb;
        row "untraced stack" untraced_mean (per_req stack.minor) (per_req stack.major);
      ]
  in
  { metrics; table; errors }
