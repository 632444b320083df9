(* The accept loop serves one connection at a time, so plain mutable
   fields and the kill switches need no synchronization. *)

module Svc = Lf_svc.Svc
module Wire = Lf_svc.Wire
module Router = Lf_shard.Router
module Health = Lf_shard.Health
module Replica = Lf_shard.Replica
module Supervisor = Lf_shard.Supervisor
module Recorder = Lf_obs.Recorder
module Span = Lf_obs.Span
module Slo = Lf_obs.Slo
module Ev = Lf_obs.Obs_event

type t = {
  name : string;  (* the dictionary's, for the banner *)
  router : Router.t;
  kills : bool array;  (* KILL i makes shard i's backend raise *)
  slo : Slo.t;
  dumps : string option;  (* the dump dir when tracing, else [None] *)
  supervisor : Supervisor.t option;
  monitor : Health.monitor;
  mutable burning : bool;  (* SLO fast burn at the last request *)
}

let now t = Lf_svc.Clock.now (Router.clock t.router)

(* One shard: a fresh dictionary with recorder spans, so METRICS has live
   operation counters and latency quantiles.  No wrapper closures per
   call: this is every request's path. *)
let backend (module D : Lf_kernel.Dict_intf.S with type key = int) kills i :
    Router.backend =
  let d = D.create () in
  let start op k =
    if kills.(i) then failwith "shard killed";
    Recorder.span_begin ~op ~key:k
  in
  let finish op ok =
    Recorder.span_end ~op ~ok;
    ok
  in
  {
    Router.insert = (fun k v -> start Ev.Insert k; finish Ev.Insert (D.insert d k v));
    delete = (fun k -> start Ev.Delete k; finish Ev.Delete (D.delete d k));
    find =
      (fun k ->
        start Ev.Find k;
        let r = D.find d k in
        Recorder.span_end ~op:Ev.Find ~ok:(Option.is_some r);
        r);
    batched = None;
  }

let create ?(deadline_ms = 0) ?(retry = 0) ?(retry_budget = 0) ?(shed = 0)
    ?(breaker = false) ?(shards = 1) ?(trace_requests = false)
    ?(dump_dir = "flight-dumps") ?(self_heal = false) ?(replicas = false)
    ?(key_range = 4096) ?backoff
    (module D : Lf_kernel.Dict_intf.S with type key = int) =
  if shards < 1 then invalid_arg "--shards must be >= 1";
  if (self_heal || replicas) && shards = 1 then
    invalid_arg "--self-heal/--replicas need --shards > 1";
  Recorder.set_level Recorder.Off;
  Recorder.reset ();
  Recorder.set_clock Recorder.Real;
  Recorder.set_level Recorder.Histograms;
  let clock = Lf_svc.Clock.real () in
  let ms = Lf_svc.Clock.ms clock in
  (* Structure-op spans must tick off the pipeline clock to nest inside
     their request spans. *)
  if trace_requests then begin
    Span.reset ();
    Span.set_level Span.Spans;
    Recorder.set_clock (Recorder.Manual (fun () -> Lf_svc.Clock.now clock))
  end;
  let positive n f = if n <= 0 then None else Some (f n) in
  let cfg =
    Svc.config ~clock ?backoff
      ~deadline:(Option.value (positive deadline_ms ms) ~default:max_int)
      ~retry:
        (positive retry (fun max_attempts ->
             Lf_svc.Retry.policy ~max_attempts ~base_delay:(ms 1) ()))
      ~budget:
        (Option.value ~default:Lf_svc.Retry.Budget.unlimited
           (positive retry_budget (fun capacity ->
                Lf_svc.Retry.Budget.config ~capacity ~refill_every:(ms 100) ())))
      ~shed:
        (positive shed (fun max_queue ->
             Lf_svc.Shed.config ~max_queue ~est_init:(ms 1) ()))
      ~breaker:
        (if not breaker then None
         else
           Some
             (Lf_svc.Breaker.config ~window:(ms 1000)
                ~latency_threshold:(ms 100) ~open_for:(ms 1000) ()))
      ()
  in
  let kills = Array.make shards false in
  let ring = Lf_shard.Hash_ring.create ~seed:1 ~shards () in
  let router =
    Router.create ~ring ~svc_config:(fun _ -> cfg) (backend (module D) kills)
  in
  (* Each slot's lagged copy lives one shard over, in a store private to
     the replica layer, fed from the write journal on each tick. *)
  if replicas then begin
    let r = Replica.create () in
    for slot = 0 to shards - 1 do
      let copy = D.create () in
      Replica.add_slot r ~slot
        ~on:((Lf_shard.Hash_ring.owner ring slot + 1) mod shards)
        ~store:
          {
            Replica.r_insert = D.insert copy;
            r_delete = D.delete copy;
            r_find = D.find copy;
          }
    done;
    Router.attach_replicas router r
  end;
  let supervisor =
    if not self_heal then None
    else
      Some
        (Supervisor.create
           (Supervisor.config ~clock ~poll_every:(ms 100) ~sick_after:2
              ~healthy_after:2 ~move_budget:2 ~backoff_base:(ms 200)
              ~backoff_max:(ms 2000) ~apply_budget:1024 ~key_range ())
           ~shards)
  in
  {
    name = D.name;
    router;
    kills;
    (* 99% good over a 5 s and a 60 s window, quarter-second buckets. *)
    slo = Slo.create ~target:0.99 ~bucket:(ms 250) ~windows:[ ms 5_000; ms 60_000 ] ();
    dumps = (if trace_requests then Some dump_dir else None);
    supervisor;
    monitor = Health.monitor ();
    burning = false;
  }

(* Dumps serialize rings that are already populated: a trigger costs one
   traversal and nothing in the steady state. *)
let dump t reason meta =
  Option.iter
    (fun dir ->
      let path, _ = Lf_obs.Flight.dump ~dir ~reason ~meta () in
      Printf.printf "lfdict serve: flight dump %s (%s)\n%!" path reason)
    t.dumps

(* The monitor reports each breaker opening once, and KILL pre-marks its
   victim, so one incident never fires two bundles. *)
let check_anomalies t =
  if t.dumps <> None then begin
    let newly = Health.newly_open t.monitor t.router in
    if newly <> [] then
      dump t "breaker-open"
        [ ("shards", String.concat "," (List.map string_of_int newly)) ];
    let fb = Slo.fast_burn t.slo ~now:(now t) in
    if fb && not t.burning then dump t "slo-fast-burn" [];
    t.burning <- fb
  end

let heal_event t (e : Supervisor.event) =
  let i = string_of_int in
  match e with
  | Heal_begun { e_shard; e_slot; e_to; e_via } ->
      dump t "heal-begin"
        [ ("shard", i e_shard); ("slot", i e_slot); ("to", i e_to);
          ("via", match e_via with Copy -> "copy" | Promote -> "promote") ]
  | Heal_ended { e_shard; e_slot; e_ok; e_moved } ->
      dump t "heal-end"
        [ ("shard", i e_shard); ("slot", i e_slot);
          ("ok", string_of_bool e_ok); ("moved", i e_moved) ]

(* Every line gives the supervisor a chance to poll (its poll_every gate
   makes the extra calls free); replication without a supervisor still
   needs its applier, a bounded slice per line. *)
let tick t =
  match (t.supervisor, Router.replicas t.router) with
  | Some sup, _ ->
      let fast_burn = Slo.fast_burn t.slo ~now:(now t) in
      ignore (Supervisor.run_tick ~fast_burn sup t.router);
      List.iter (heal_event t) (Supervisor.events sup)
  | None, Some r -> ignore (Replica.apply ~budget:256 r)
  | None, None -> ()

(* A stale answer is still an answered read: the staleness contract is
   the wire token's job, the SLO's is "did we answer". *)
let good = function
  | Svc.Served _ | Svc.Served_stale _ -> true
  | Svc.Rejected _ | Svc.Failed _ -> false

(* One root span per wire request, ok iff every outcome was good. *)
let root t name =
  if t.dumps = None then Span.nil else Span.root ~name ~now:(now t)

let request t req =
  let ctx = root t "request" in
  let out = Router.call t.router ~ctx req in
  let ok = good out and now = now t in
  Span.end_ ctx ~now ~ok;
  Slo.observe t.slo ~now ~good:ok;
  check_anomalies t;
  out

let multi t reqs =
  let ctx = root t "multi" in
  let outs = Router.call_many t.router ~ctx reqs in
  let now = now t in
  Span.end_ ctx ~now ~ok:(List.for_all good outs);
  List.iter (fun o -> Slo.observe t.slo ~now ~good:(good o)) outs;
  check_anomalies t;
  outs

let kill t s =
  if s < 0 || s >= Array.length t.kills then Wire.format_error "bad shard"
  else begin
    t.kills.(s) <- true;
    Health.mark_open t.monitor s;
    dump t "shard-kill" [ ("shard", string_of_int s) ];
    "OK true"
  end

let metrics t =
  let shard_of k = string_of_int (Router.route t.router k) in
  let cas_failures =
    {
      Lf_obs.Prom.m_name = "lf_shard_cas_failures_total";
      m_help = "Keyed C&S failures attributed to the owning shard";
      m_type = "counter";
      m_samples =
        List.map
          (fun (g, n) -> ([ ("shard", g) ], float_of_int n))
          (Lf_obs.Profile.by_group ~group:shard_of (Recorder.profile ()));
    }
  in
  Lf_obs.Prom.snapshot ()
  ^ Lf_obs.Prom.render_metrics (Health.metrics t.router @ [ cas_failures ])
  ^ "END"

let replicas_line t r =
  let slot (s : Replica.slot_stats) =
    Printf.sprintf " slot=%d on=%d lag=%d pending=%d applied=%d" s.s_slot
      s.s_on s.s_lag s.s_pending s.s_applied
  in
  let rs = Replica.stats r ~now:(now t) in
  Printf.sprintf "REPLICAS n=%d%s" (List.length rs)
    (String.concat "" (List.map slot rs))

type reply = Reply of string | Close | Stop of string

let handle t line =
  tick t;
  let off what = Reply (Wire.format_error what) in
  match Wire.parse line with
  | Error e -> Reply (Wire.format_error e)
  | Ok (Op req) -> Reply (Wire.format_outcome (request t req))
  | Ok (Multi reqs) -> Reply (Wire.format_multi (multi t reqs))
  | Ok (Kill s) -> Reply (kill t s)
  | Ok Health -> Reply (Health.line t.router)
  | Ok Metrics -> Reply (metrics t)
  | Ok Slo -> Reply (Slo.line t.slo ~now:(now t))
  | Ok Replicas -> (
      match Router.replicas t.router with
      | None -> off "no replicas (serve with --replicas)"
      | Some r -> Reply (replicas_line t r))
  | Ok Heal -> (
      match t.supervisor with
      | None -> off "no supervisor (serve with --self-heal)"
      | Some sup -> Reply (Supervisor.line sup))
  | Ok Flightdump -> (
      match t.dumps with
      | None -> off "tracing off (serve with --trace-requests)"
      | Some dir -> Reply ("OK " ^ fst (Lf_obs.Flight.dump ~dir ~reason:"manual" ())))
  | Ok Quit -> Close
  | Ok Shutdown -> Stop "OK true"

type line = Line of string | Too_long | Eof

(* The unread bytes are [buf.[pos .. len - 1]]. *)
type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader_capacity = 16384
let reader fd = { fd; buf = Bytes.create reader_capacity; pos = 0; len = 0 }

let rec newline buf i len =
  if i = len || Bytes.get buf i = '\n' then i else newline buf (i + 1) len

(* [i - pos] is the line's length so far, newline found or not, so an
   oversized line is refused as soon as [max_line + 1] of it are here. *)
let rec read_line r =
  let i = newline r.buf r.pos r.len in
  if i - r.pos > Wire.max_line then Too_long
  else if i < r.len then begin
    let l = Bytes.sub_string r.buf r.pos (i - r.pos) in
    r.pos <- i + 1;
    Line l
  end
  else begin
    let n = r.len - r.pos in
    Bytes.blit r.buf r.pos r.buf 0 n;
    r.pos <- 0;
    r.len <- n;
    match Unix.read r.fd r.buf n (reader_capacity - n) with
    | 0 ->
        r.len <- 0;
        if n = 0 then Eof else Line (Bytes.sub_string r.buf 0 n)
    | k ->
        r.len <- n + k;
        read_line r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r
  end

(* Serve one connection; [true] once a SHUTDOWN stops the server. *)
let connection t fd =
  let r = reader fd and oc = Unix.out_channel_of_descr fd in
  let send s =
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  let rec loop () =
    match read_line r with
    | Eof -> false
    | Too_long ->
        send (Wire.format_error "line too long");
        false
    | Line l -> (
        match handle t l with
        | Reply s ->
            send s;
            loop ()
        | Close -> false
        | Stop s ->
            send s;
            true)
  in
  try loop () with Sys_error _ | Unix.Unix_error _ -> false

let run t ~port =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 8;
  Printf.printf "lfdict serve: %s on 127.0.0.1:%d\n%!" t.name port;
  let rec accept () =
    let fd, _ = Unix.accept sock in
    let stop = connection t fd in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if not stop then accept ()
  in
  accept ();
  Unix.close sock
