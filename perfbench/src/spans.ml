(* The traced replay's span recorder: name, start, end and parent of
   every span, kept in flat arrays in memory and written out at exit.
   A span's self time is its duration minus its children's: spans of one
   request nest and never overlap, so the children cover exactly their
   summed durations.

   In words mode a span also records minor words ([Gc.minor_words]) and
   direct major words ([Gc.counters]' major minus promoted) at both
   ends, so a layer's self words are measured in the same pass as its
   neighbours'.  Those reads allocate a constant amount inside the span
   they bracket; [self_words] subtracts it. *)

let names =
  [|
    "request";
    "wire.parse";
    "svc.call";
    "router.call";
    "backend.insert";
    "backend.delete";
    "backend.find";
    "obs.recorder";
    "skiplist.insert";
    "skiplist.delete";
    "skiplist.find";
    "wire.format";
    "obs.slo";
  |]

let id name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Spans.id: " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let request = id "request"
let wire_parse = id "wire.parse"
let svc_call = id "svc.call"
let router_call = id "router.call"
let backend_insert = id "backend.insert"
let backend_delete = id "backend.delete"
let backend_find = id "backend.find"
let obs_recorder = id "obs.recorder"
let skiplist_insert = id "skiplist.insert"
let skiplist_delete = id "skiplist.delete"
let skiplist_find = id "skiplist.find"
let wire_format = id "wire.format"
let obs_slo = id "obs.slo"

type t = {
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  words : bool;
  mutable mi0 : float array;
  mutable mi1 : float array;
  mutable ma0 : float array;
  mutable ma1 : float array;
  mutable n : int;
  mutable cur : int;  (** innermost open span, -1 outside a request *)
  mutable cur_req : int;
}

let create ?(words = false) cap =
  let cap = max 16 cap in
  let fcap = if words then cap else 0 in
  {
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    words;
    mi0 = Array.make fcap 0.;
    mi1 = Array.make fcap 0.;
    ma0 = Array.make fcap 0.;
    ma1 = Array.make fcap 0.;
    n = 0;
    cur = -1;
    cur_req = -1;
  }

let direct_major () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  let gf a =
    let b = Array.make (2 * Array.length t.name) 0. in
    Array.blit a 0 b 0 (if t.words then t.n else 0);
    b
  in
  t.mi0 <- gf t.mi0;
  t.mi1 <- gf t.mi1;
  t.ma0 <- gf t.ma0;
  t.ma1 <- gf t.ma1;
  t.name <- g t.name;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.req <- g t.req

let enter t name =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- name;
  t.parent.(i) <- t.cur;
  t.req.(i) <- t.cur_req;
  t.cur <- i;
  if t.words then begin
    t.mi0.(i) <- Gc.minor_words ();
    t.ma0.(i) <- direct_major ()
  end;
  t.start.(i) <- Bclock.now_ns ();
  i

let leave t i =
  t.stop.(i) <- Bclock.now_ns ();
  if t.words then begin
    t.ma1.(i) <- direct_major ();
    t.mi1.(i) <- Gc.minor_words ()
  end;
  t.cur <- t.parent.(i)

(* Open the root span of request number [req]. *)
let root t ~req =
  t.cur <- -1;
  t.cur_req <- req;
  enter t request

let duration t i = t.stop.(i) - t.start.(i)

(* Per span name: summed self time (ns). *)
let self_times t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration t i
  done;
  let self = Array.make (Array.length names) 0 in
  for i = 0 to t.n - 1 do
    let k = t.name.(i) in
    self.(k) <- self.(k) + duration t i - child.(i)
  done;
  self

(* Minor words an empty span records: its own reads' allocation. *)
let empty_span_words =
  lazy
    (let t = create ~words:true 64 in
     let best = ref infinity in
     for _ = 1 to 16 do
       let i = enter t request in
       leave t i;
       best := Float.min !best (t.mi1.(i) -. t.mi0.(i))
     done;
     !best)

(* Per span name: summed self minor and self direct-major words (words
   mode only). *)
let self_words t =
  let k = Lazy.force empty_span_words in
  let cmi = Array.make t.n 0. and cma = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      cmi.(p) <- cmi.(p) +. (t.mi1.(i) -. t.mi0.(i));
      cma.(p) <- cma.(p) +. (t.ma1.(i) -. t.ma0.(i))
    end
  done;
  let mi = Array.make (Array.length names) 0. in
  let ma = Array.make (Array.length names) 0. in
  for i = 0 to t.n - 1 do
    let nm = t.name.(i) in
    mi.(nm) <- mi.(nm) +. (t.mi1.(i) -. t.mi0.(i)) -. cmi.(i) -. k;
    ma.(nm) <- ma.(nm) +. (t.ma1.(i) -. t.ma0.(i)) -. cma.(i)
  done;
  (mi, ma)

(* Write the spans of the first [max_req] requests as tab-separated
   [req id parent name start_ns end_ns] lines. *)
let write t ~path ~max_req =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "req\tid\tparent\tname\tstart_ns\tend_ns\n";
      let i = ref 0 in
      while !i < t.n && t.req.(!i) < max_req do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" t.req.(!i) !i t.parent.(!i)
          names.(t.name.(!i)) t.start.(!i) t.stop.(!i);
        incr i
      done)
