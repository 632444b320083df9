(* The benchmark's workloads: the serve configuration each one drives,
   its seeded line stream, its preload, and the exact reply oracle that
   checks every answer the server gives.

   A stream is a pure function of (workload, seed, connection): the TCP
   client and the in-process layer replays draw the same lines. *)

module Splitmix = Lf_kernel.Splitmix

type kind = Get | Put | Del | Mget | Mset

type line = { kind : kind; keys : int array }

type t = {
  name : string;
  serve_args : string list;  (** arguments after [lfdict serve] *)
  shards : int;  (** 1 = the single-instance server shape *)
  pipeline : bool;  (** deadline/retry/shed/breaker flags on *)
  conns : int;
  depth : int;  (** lines in flight per connection; 1 = lockstep *)
  key_space : int;  (** a power of two *)
  skewed : bool;  (** 90% of key draws on 10% of each connection's keys *)
  mix : (kind * int) list;  (** per-mille line weights, summing to 1000 *)
  batch : int;  (** keys per MGET/MSET line *)
  replay_lines : int;  (** lines per in-process layer replay *)
}

(* The flags the documented pipeline runs with (README's serve example). *)
let pipeline_flags =
  [ "--deadline-ms"; "50"; "--retry"; "3"; "--retry-budget"; "100"; "--shed";
    "128"; "--breaker" ]

let kv_lockstep =
  {
    name = "kv-lockstep";
    serve_args = [ "-i"; "fr-skiplist" ] @ pipeline_flags;
    shards = 1;
    pipeline = true;
    conns = 1;
    depth = 1;
    key_space = 16384;
    skewed = false;
    mix = [ (Get, 800); (Put, 100); (Del, 100) ];
    batch = 0;
    replay_lines = 12_000;
  }

(* Key-level accounting: with 7.5% MGET and 2.5% MSET lines of 16 keys,
   PUT 22.5% and DEL 62.5%, half of all key operations are writes and
   insert attempts (PUT + MSET keys) equal delete attempts, so the live
   set stays near the preloaded half. *)
let shard_pipelined =
  {
    name = "shard-pipelined";
    serve_args = [ "-i"; "fr-skiplist"; "--shards"; "4" ] @ pipeline_flags;
    shards = 4;
    pipeline = true;
    conns = 2;
    depth = 32;
    key_space = 65536;
    skewed = true;
    mix = [ (Get, 50); (Put, 225); (Del, 625); (Mget, 75); (Mset, 25) ];
    batch = 16;
    replay_lines = 4_000;
  }

let large_pipelined =
  {
    name = "large-pipelined";
    serve_args = [ "-i"; "fr-skiplist" ];
    shards = 1;
    pipeline = false;
    conns = 1;
    depth = 64;
    key_space = 524288;
    skewed = false;
    mix = [ (Get, 900); (Put, 50); (Del, 50) ];
    batch = 0;
    replay_lines = 150_000;
  }

let all = [ kv_lockstep; shard_pipelined; large_pipelined ]
let find name = List.find_opt (fun w -> w.name = name) all

let is_read = function Get | Mget -> true | Put | Del | Mset -> false
let is_batch = function Mget | Mset -> true | Get | Put | Del -> false

(* ---- seeded streams ---------------------------------------------------- *)

(* Independent stream per (workload, seed, purpose, connection). *)
let rng_for w ~seed ~salt =
  Splitmix.create
    ((seed * 1_000_003) lxor (Hashtbl.hash w.name * 7919) lxor (salt * 104_729))

type gen = {
  w : t;
  conn : int;
  rng : Splitmix.t;
  span : int;  (** keys owned by this connection *)
  hot : int;
  mul : int;  (** odd: [j -> j * mul + off] permutes [0, span) *)
  off : int;
}

(* Connection [c] owns the keys congruent to [c] mod [conns], so each
   connection's oracle stays exact under any interleaving. *)
let gen w ~seed ~conn =
  let rng = rng_for w ~seed ~salt:(conn + 1) in
  let span = w.key_space / w.conns in
  let mul = (Splitmix.bits rng lor 1) land (span - 1) lor 1 in
  let off = Splitmix.int rng span in
  { w; conn; rng; span; hot = max 1 (span / 10); mul; off }

let draw_key g =
  let j =
    if not g.w.skewed then Splitmix.int g.rng g.span
    else if Splitmix.int g.rng 10 < 9 then Splitmix.int g.rng g.hot
    else g.hot + Splitmix.int g.rng (g.span - g.hot)
  in
  (((j * g.mul) + g.off) land (g.span - 1) * g.w.conns) + g.conn

let draw_kind g =
  let r = Splitmix.int g.rng 1000 in
  let rec pick acc = function
    | [ (k, _) ] -> k
    | (k, p) :: rest -> if r < acc + p then k else pick (acc + p) rest
    | [] -> invalid_arg "Workload.draw_kind: empty mix"
  in
  pick 0 g.w.mix

(* A batch may not repeat a key (the wire rejects it), so draw until
   [batch] distinct keys. *)
let distinct_keys g n =
  let a = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let k = draw_key g in
    let dup = ref false in
    for j = 0 to !i - 1 do
      if a.(j) = k then dup := true
    done;
    if not !dup then begin
      a.(!i) <- k;
      incr i
    end
  done;
  a

let next g =
  let kind = draw_kind g in
  let keys =
    if is_batch kind then distinct_keys g g.w.batch else [| draw_key g |]
  in
  { kind; keys }

let value_of k = (k land 0xffff) + 1

let to_string l =
  let b = Buffer.create (8 + (8 * Array.length l.keys)) in
  Buffer.add_string b
    (match l.kind with
    | Get -> "GET"
    | Put -> "PUT"
    | Del -> "DEL"
    | Mget -> "MGET"
    | Mset -> "MSET");
  Array.iter
    (fun k ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int k);
      if l.kind = Put || l.kind = Mset then begin
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int (value_of k))
      end)
    l.keys;
  Buffer.contents b

(* The in-process replays' [n] lines, in the order serve applies them.
   Serve answers one connection at a time, in the order they connected:
   the first connection gets the whole window, and each later one is
   answered only after it, with the [depth] lines it sent at the start. *)
let replay_stream w ~seed n =
  let later = min n ((w.conns - 1) * w.depth) in
  let first = gen w ~seed ~conn:0 in
  let rest = Array.init (w.conns - 1) (fun c -> gen w ~seed ~conn:(c + 1)) in
  Array.init n (fun i ->
      if i < n - later then next first
      else next rest.((i - (n - later)) / w.depth))

let key_ops lines =
  Array.fold_left (fun a l -> a + Array.length l.keys) 0 lines

(* ---- preload ------------------------------------------------------------ *)

(* Each key is preloaded with probability one half, drawn from the seed. *)
let preload_keys w ~seed =
  let rng = rng_for w ~seed ~salt:0 in
  let acc = ref [] in
  for k = w.key_space - 1 downto 0 do
    if Splitmix.bool rng then acc := k :: !acc
  done;
  Array.of_list !acc

let preload_lines keys =
  let n = Array.length keys in
  List.init
    ((n + Lf_svc.Wire.max_batch - 1) / Lf_svc.Wire.max_batch)
    (fun i ->
      let lo = i * Lf_svc.Wire.max_batch in
      let hi = min n (lo + Lf_svc.Wire.max_batch) in
      { kind = Mset; keys = Array.sub keys lo (hi - lo) })

(* ---- reply oracle ------------------------------------------------------- *)

(* Per key: absent, present, or unknown (a FAILED write may or may not
   have taken effect; the next served answer on the key settles it).
   Connections own disjoint keys, so one array holds every connection's
   exact model. *)
type model = Bytes.t

let absent = '\000'
let present = '\001'
let unknown = '\002'

exception Wrong_answer of string

let model w ~preloaded =
  let m = Bytes.make w.key_space absent in
  Array.iter (fun k -> Bytes.set m k present) preloaded;
  m

(* One served key outcome [found]: check it against the model and apply
   the operation.  Reads learn an unknown key's state. *)
let served m kind k found =
  let st = Bytes.get m k in
  let expect =
    match kind with
    | Get | Mget -> st = present
    | Put | Mset -> st = absent
    | Del -> st = present
  in
  if st <> unknown && found <> expect then
    raise
      (Wrong_answer
         (Printf.sprintf "key %d: answered %b, model says %b" k found expect));
  match kind with
  | Get | Mget -> if st = unknown then Bytes.set m k (if found then present else absent)
  | Put | Mset -> Bytes.set m k present
  | Del -> Bytes.set m k absent

let failed_write m kind k = if not (is_read kind) then Bytes.set m k unknown

let reject_reasons =
  List.map Lf_svc.Svc.reason_to_string
    Lf_svc.Svc.[ Expired; Queue_full; Doomed; Breaker_open; Write_degraded ]

let bool_of s =
  match s with
  | "true" | "t" -> true
  | "false" | "f" -> false
  | _ -> raise (Wrong_answer ("not a boolean: " ^ s))

(* Check one reply line against the model and apply it.  [true] iff
   every key of the line got a served outcome; REJECTED/FAILED/ERR
   answers (whole-line or per-key) return [false] — a rejected write
   leaves the model unchanged, a failed one makes its key unknown.
   Anything else is a wrong answer. *)
let check m l reply =
  match String.split_on_char ' ' reply with
  | [ "OK"; b ] when not (is_batch l.kind) ->
      served m l.kind l.keys.(0) (bool_of b);
      true
  | "STALE" :: _ when is_read l.kind -> true
  | "REJECTED" :: _ -> false
  | "FAILED" :: _ ->
      Array.iter (failed_write m l.kind) l.keys;
      false
  | "ERR" :: _ -> false
  | "MULTI" :: n :: toks when is_batch l.kind ->
      let keys = l.keys in
      if int_of_string_opt n <> Some (Array.length keys)
         || List.length toks <> Array.length keys
      then raise (Wrong_answer ("bad MULTI arity: " ^ reply));
      List.fold_left
        (fun (i, all_ok) tok ->
          let k = keys.(i) in
          let ok =
            match tok with
            | "t" | "f" ->
                served m l.kind k (bool_of tok);
                true
            | "failed" ->
                failed_write m l.kind k;
                false
            | _ when String.length tok > 6 && String.sub tok 0 6 = "stale:" ->
                if not (is_read l.kind) then
                  raise (Wrong_answer ("stale write token: " ^ reply));
                true
            | _ when List.mem tok reject_reasons -> false
            | _ -> raise (Wrong_answer ("bad MULTI token: " ^ reply))
          in
          (i + 1, all_ok && ok))
        (0, true) toks
      |> snd
  | _ ->
      raise
        (Wrong_answer (Printf.sprintf "%S answered %S" (to_string l) reply))
