(* The end-to-end half of the benchmark: start a fresh [lfdict serve],
   preload it, drive one workload's line stream over TCP loopback for a
   fixed window, check every reply against the oracle, and read the
   server's own counters ([METRICS] [lf_gc_*], [/proc/<pid>/{stat,io,
   status}]) on both sides of the window. *)

module W = Workload

type server = {
  pid : int;
  port : int;
  out : Unix.file_descr;
  mutable alive : bool;  (** not yet reaped; guards pid and fd reuse *)
  apart : bool;  (** server and this client pinned to CPUs of their own *)
}

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let kill srv =
  if srv.alive then begin
    srv.alive <- false;
    (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap srv.pid;
    Unix.close srv.out
  end

(* The first line the server prints, or [None] on EOF or timeout. *)
let first_line fd ~timeout =
  let b = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let t0 = Bclock.now_ns () in
  let rec go () =
    let left = timeout -. Bclock.seconds_since t0 in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ ->
              if Bytes.get byte 0 = '\n' then Some (Buffer.contents b)
              else begin
                Buffer.add_bytes b byte;
                go ()
              end)
  in
  go ()

(* CPUs this process may use, read before any pinning. *)
let cpus = Bclock.cpu_count ()

(* Spawn [exe serve <workload flags> --port p] and wait until it says it
   listens.  With two CPUs or more both processes are pinned.  In a
   pipelined workload the client and the server run at the same time,
   so the server gets CPU 1 and this client CPU 0, and neither queues
   for the other's CPU.  In a lockstep workload they take turns, so both
   get CPU 1: apart, every request and reply would wake an idle CPU (in
   a virtual machine, that waits for the host), and left unpinned, the
   kernel puts the pair on one CPU in some runs and on two in others,
   which moved the median round trip by half.  A port taken between
   [free_port] and the server's bind makes the server exit; try
   another. *)
let spawn ~exe (w : W.t) =
  let rec attempt n =
    let port = free_port () in
    let r, wr = Unix.pipe ~cloexec:true () in
    let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    let argv =
      Array.of_list
        ((exe :: "serve" :: w.serve_args) @ [ "--port"; string_of_int port ])
    in
    let pinned = cpus >= 2 && Bclock.pin_cpu 1 in
    let pid = Unix.create_process exe argv null wr Unix.stderr in
    let apart = pinned && w.depth > 1 && Bclock.pin_cpu 0 in
    Unix.close wr;
    Unix.close null;
    let srv = { pid; port; out = r; alive = true; apart } in
    let suffix = Printf.sprintf "127.0.0.1:%d" port in
    match first_line r ~timeout:60. with
    | Some l when String.ends_with ~suffix l -> srv
    | _ ->
        kill srv;
        if n >= 3 then failwith "lfdict serve did not start" else attempt (n + 1)
  in
  attempt 1

(* ---- buffered line connections ----------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

(* A reply that takes longer than this counts as missing. *)
let reply_timeout = 60.

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        write_all fd s off len

let send c s = write_all c.fd s 0 (String.length s)

(* Read what the socket has into the buffer: the byte count, 0 on EOF
   or reset, -1 when nothing arrived (a non-blocking socket with no data,
   or [reply_timeout] on a blocking one). *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let nb = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf 0 nb 0 c.hi;
    c.buf <- nb
  end;
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | n ->
      c.hi <- c.hi + n;
      n
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> -1

(* The next complete line.  Only the bytes read so far are searched:
   the buffer's tail beyond [hi] is stale, and scanning it cost tens of
   microseconds per reply whenever it happened to hold no newline. *)
let take_line c =
  let rec eol i =
    if i >= c.hi then None else if Bytes.get c.buf i = '\n' then Some i else eol (i + 1)
  in
  match eol c.lo with
  | None -> None
  | Some i ->
      let s = Bytes.sub_string c.buf c.lo (i - c.lo) in
      c.lo <- i + 1;
      Some s

let rec read_line c =
  match take_line c with
  | Some s -> s
  | None -> if fill c <= 0 then raise End_of_file else read_line c

let request c line =
  send c (line ^ "\n");
  read_line c

(* ---- server counters ---------------------------------------------------- *)

type gc = {
  minor_words : float;
  promoted_words : float;
  minor_gcs : float;
  major_gcs : float;
}

let gc_sub a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    minor_gcs = a.minor_gcs -. b.minor_gcs;
    major_gcs = a.major_gcs -. b.major_gcs;
  }

(* [METRICS] and its [lf_gc_*] counters. *)
let metrics c =
  send c "METRICS\n";
  let tbl = Hashtbl.create 8 in
  let rec go () =
    match read_line c with
    | "END" -> ()
    | l ->
        (match String.split_on_char ' ' l with
        | [ name; v ] when String.starts_with ~prefix:"lf_gc_" name ->
            Hashtbl.replace tbl name (float_of_string v)
        | _ -> ());
        go ()
  in
  go ();
  let get n =
    match Hashtbl.find_opt tbl n with
    | Some v -> v
    | None -> failwith ("METRICS lacks " ^ n)
  in
  {
    minor_words = get "lf_gc_minor_words_total";
    promoted_words = get "lf_gc_promoted_words_total";
    minor_gcs = get "lf_gc_minor_collections_total";
    major_gcs = get "lf_gc_major_collections_total";
  }

type proc = { cpu_ticks : int; syscr : int; syscw : int }

let slurp path = In_channel.with_open_bin path In_channel.input_all

let field_after prefix text =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        let rest = String.sub l (String.length prefix) (String.length l - String.length prefix) in
        match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) with
        | v :: _ -> int_of_string_opt v
        | [] -> None
      else None)
    (String.split_on_char '\n' text)

let proc_snapshot pid =
  let stat = slurp (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name start at field 3
     (state); utime and stime are fields 14 and 15. *)
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  let io = slurp (Printf.sprintf "/proc/%d/io" pid) in
  let get p = Option.value (field_after p io) ~default:0 in
  {
    cpu_ticks = int_of_string f.(11) + int_of_string f.(12);
    syscr = get "syscr:";
    syscw = get "syscw:";
  }

let vm_hwm_kb pid =
  match field_after "VmHWM:" (slurp (Printf.sprintf "/proc/%d/status" pid)) with
  | Some kb -> kb
  | None -> failwith "no VmHWM in /proc/<pid>/status"

(* ---- samples ------------------------------------------------------------ *)

(* One sample per reply: its latency, when it arrived (ns after the
   window opened), and whether it answered a read. *)
type samples = {
  mutable lat : int array;
  mutable at : int array;
  mutable rd : Bytes.t;
  mutable n : int;
}

let samples () =
  { lat = Array.make 65536 0; at = Array.make 65536 0; rd = Bytes.make 65536 '\000'; n = 0 }

let push s ~lat ~at ~read =
  if s.n = Array.length s.lat then begin
    let grow a =
      let b = Array.make (2 * s.n) 0 in
      Array.blit a 0 b 0 s.n;
      b
    in
    s.lat <- grow s.lat;
    s.at <- grow s.at;
    s.rd <- Bytes.extend s.rd 0 s.n
  end;
  s.lat.(s.n) <- lat;
  s.at.(s.n) <- at;
  Bytes.set s.rd s.n (if read then '\001' else '\000');
  s.n <- s.n + 1

(* Nearest-rank percentile of a sorted array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    float_of_int
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* ---- setup: spawn + preload --------------------------------------------- *)

(* Preload over one connection, at most [depth] lines in flight.  Every
   key is fresh, so every token must be [t]. *)
let preload c m lines =
  let depth = 16 in
  let q = Queue.create () in
  let rec go pending =
    match (pending, Queue.length q < depth) with
    | l :: rest, true ->
        send c (W.to_string l ^ "\n");
        Queue.push l q;
        go rest
    | _ ->
        if not (Queue.is_empty q) then begin
          let l = Queue.pop q in
          let reply = read_line c in
          if not (W.check m l reply) then
            raise (W.Wrong_answer ("preload not served: " ^ reply));
          go pending
        end
  in
  go lines

type setup = { srv : server; model : W.model; setup_s : float }

let setup ~exe ~seed (w : W.t) =
  let t0 = Bclock.now_ns () in
  let srv = spawn ~exe w in
  match
    let keys = W.preload_keys w ~seed in
    let m = W.model w ~preloaded:[||] in
    let c = connect srv.port in
    preload c m (W.preload_lines keys);
    (c, m)
  with
  | c, m -> (c, { srv; model = m; setup_s = Bclock.seconds_since t0 })
  | exception e ->
      kill srv;
      raise e

let shutdown c srv =
  ignore (request c "SHUTDOWN");
  close c;
  srv.alive <- false;
  reap srv.pid;
  Unix.close srv.out

(* ---- the measured window ------------------------------------------------ *)

type flight = {
  c : conn;
  g : W.gen;
  ring : W.line array;
  sent : int array;
  mutable head : int;
  mutable count : int;
  mutable live : bool;
}

(* The replies of one stretch of the window. *)
type chunk = {
  n : int;
  seconds : float;
  lat : int array;  (** sorted, ns *)
  reads : int array;
  writes : int array;
  cpu_s : float;  (** server utime + stime over the stretch *)
}

type result = {
  attempted : int;
  replies : int;
  errors : int;  (** lines not fully served, missing replies included *)
  whole : chunk;  (** the whole window *)
  chunks : chunk array;  (** one-second stretches; drained replies in the last *)
  setups : float list;
  syscr : int;
  syscw : int;
  hwm_kb : int;
  gc : gc;  (** server GC over the window, METRICS calls excluded *)
}

(* The chunk of samples [i0, i1): replies arrive in time order, so a
   stretch of the window is a range of samples. *)
let chunk_of (s : samples) ~i0 ~i1 ~seconds ~cpu_s =
  let pick keep =
    let b = Array.make (i1 - i0) 0 and m = ref 0 in
    for i = i0 to i1 - 1 do
      if keep i then begin
        b.(!m) <- s.lat.(i);
        incr m
      end
    done;
    let a = Array.sub b 0 !m in
    Array.sort Int.compare a;
    a
  in
  let lat = pick (fun _ -> true) in
  {
    n = i1 - i0;
    seconds;
    lat;
    reads = pick (fun i -> Bytes.get s.rd i = '\001');
    writes = pick (fun i -> Bytes.get s.rd i = '\000');
    cpu_s;
  }

(* Drive a freshly set-up server for [seconds], cut into [k] stretches,
   then shut it down.  [ctrl] is the setup connection. *)
let window ~seed ~seconds ~chunks:k ~setups (w : W.t) ctrl st =
  let srv = st.srv in
  Fun.protect
    ~finally:(fun () -> kill srv)
    (fun () ->
      (* Two back-to-back METRICS: their delta is the cost of one call,
         subtracted from the bracket so the bracketing calls themselves
         are excluded. *)
      let m1 = metrics ctrl in
      let m2 = metrics ctrl in
      send ctrl "QUIT\n";
      close ctrl;
      let p0 = proc_snapshot srv.pid in
      let flights =
        Array.init w.conns (fun conn ->
            {
              c = connect srv.port;
              g = W.gen w ~seed ~conn;
              ring = Array.make w.depth { W.kind = W.Get; keys = [||] };
              sent = Array.make w.depth 0;
              head = 0;
              count = 0;
              live = true;
            })
      in
      let all = samples () in
      let attempted = ref 0 and replies = ref 0 and errors = ref 0 in
      let t_start = Bclock.now_ns () in
      let window_ns = int_of_float (seconds *. 1e9) in
      let deadline = t_start + window_ns in
      let t_last = ref t_start in
      (* Server CPU at each chunk boundary, read at the first reply
         after it. *)
      let chunk_ns = window_ns / k in
      let cpu_at = Array.make (k + 1) p0.cpu_ticks in
      let next_chunk = ref 1 in
      let boundary t =
        if !next_chunk < k && t - t_start >= !next_chunk * chunk_ns then begin
          cpu_at.(!next_chunk) <- (proc_snapshot srv.pid).cpu_ticks;
          incr next_chunk
        end
      in
      let out = Buffer.create 4096 in
      let refill f now =
        if now < deadline then begin
          Buffer.clear out;
          let first = f.count in
          while f.count < w.depth do
            let l = W.next f.g in
            Buffer.add_string out (W.to_string l);
            Buffer.add_char out '\n';
            f.ring.((f.head + f.count) mod w.depth) <- l;
            f.count <- f.count + 1;
            incr attempted
          done;
          if f.count > first then begin
            let t = Bclock.now_ns () in
            for i = first to f.count - 1 do
              f.sent.((f.head + i) mod w.depth) <- t
            done;
            send f.c (Buffer.contents out)
          end
        end
      in
      Array.iter (fun f -> refill f t_start) flights;
      let finish f =
        f.live <- false;
        close f.c
      in
      let missing f =
        errors := !errors + f.count;
        f.count <- 0;
        finish f
      in
      let on_data f =
        let t = Bclock.now_ns () in
        let rec drain () =
          match take_line f.c with
          | None -> ()
          | Some reply ->
              if f.count = 0 then
                raise (W.Wrong_answer ("unsolicited reply: " ^ reply));
              let l = f.ring.(f.head) in
              let lat = t - f.sent.(f.head) in
              f.head <- (f.head + 1) mod w.depth;
              f.count <- f.count - 1;
              incr replies;
              t_last := t;
              push all ~lat ~at:(t - t_start) ~read:(W.is_read l.kind);
              if not (W.check st.model l reply) then incr errors;
              drain ()
        in
        drain ();
        boundary t;
        refill f t;
        if f.count = 0 then finish f
      in
      let waiting f = f.live && f.count > 0 in
      let last_progress = ref t_start in
      let stalled () = Bclock.seconds_since !last_progress > reply_timeout in
      (* On a CPU of its own, the client polls its sockets instead of
         sleeping in read, so its CPU never idles and no reply waits for
         the host to wake it.  Sharing the server's CPU, it blocks. *)
      let rec spin () =
        let busy = ref false and got = ref false in
        Array.iter
          (fun f ->
            if waiting f then begin
              busy := true;
              let n = fill f.c in
              if n > 0 then begin
                got := true;
                on_data f
              end
              else if n = 0 then missing f
            end)
          flights;
        if !got then last_progress := Bclock.now_ns ()
        else if !busy && stalled () then
          Array.iter (fun f -> if waiting f then missing f) flights;
        if !busy then spin ()
      in
      let rec block () =
        match List.filter waiting (Array.to_list flights) with
        | [] -> ()
        | [ f ] ->
            if fill f.c > 0 then on_data f else missing f;
            block ()
        | fs ->
            let ready, _, _ = Unix.select (List.map (fun f -> f.c.fd) fs) [] [] 1.0 in
            if ready <> [] then last_progress := Bclock.now_ns ()
            else if stalled () then List.iter missing fs;
            List.iter
              (fun f ->
                if List.mem f.c.fd ready then
                  if fill f.c > 0 then on_data f else missing f)
              fs;
            block ()
      in
      let loop () =
        if srv.apart then begin
          Array.iter (fun f -> Unix.set_nonblock f.c.fd) flights;
          spin ()
        end
        else block ()
      in
      loop ();
      Array.iter (fun f -> if f.live then finish f) flights;
      let p1 = proc_snapshot srv.pid in
      for i = !next_chunk to k do
        cpu_at.(i) <- p1.cpu_ticks
      done;
      let tck = float_of_int (Bclock.clk_tck ()) in
      let cpu a b = float_of_int (cpu_at.(b) - cpu_at.(a)) /. tck in
      let last = !t_last - t_start + 1 in
      (* First sample of each stretch; replies drained after the window
         go to the last one. *)
      let first = Array.make (k + 1) all.n in
      let i = ref 0 in
      for c = 0 to k - 1 do
        while !i < all.n && all.at.(!i) < c * chunk_ns do incr i done;
        first.(c) <- !i
      done;
      let chunks =
        Array.init k (fun c ->
            let seconds =
              float_of_int (if c = k - 1 then last - (c * chunk_ns) else chunk_ns) /. 1e9
            in
            chunk_of all ~i0:first.(c) ~i1:first.(c + 1) ~seconds ~cpu_s:(cpu c (c + 1)))
      in
      let ctrl = connect srv.port in
      let m3 = metrics ctrl in
      let hwm_kb = vm_hwm_kb srv.pid in
      shutdown ctrl srv;
      {
        attempted = !attempted;
        replies = !replies;
        errors = !errors;
        whole =
          chunk_of all ~i0:0 ~i1:all.n ~seconds:(float_of_int last /. 1e9)
            ~cpu_s:(cpu 0 k);
        chunks;
        setups;
        syscr = p1.syscr - p0.syscr;
        syscw = p1.syscw - p0.syscw;
        hwm_kb;
        gc = gc_sub (gc_sub m3 m2) (gc_sub m2 m1);
      })

(* Several servers' windows as one, their stretches side by side. *)
let merge rs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let sumf f = List.fold_left (fun a r -> a +. f r) 0. rs in
  let cat f =
    let a = Array.concat (List.map (fun r -> f r.whole) rs) in
    Array.sort Int.compare a;
    a
  in
  {
    attempted = sum (fun r -> r.attempted);
    replies = sum (fun r -> r.replies);
    errors = sum (fun r -> r.errors);
    whole =
      {
        n = sum (fun r -> r.whole.n);
        seconds = sumf (fun r -> r.whole.seconds);
        lat = cat (fun c -> c.lat);
        reads = cat (fun c -> c.reads);
        writes = cat (fun c -> c.writes);
        cpu_s = sumf (fun r -> r.whole.cpu_s);
      };
    chunks = Array.concat (List.map (fun r -> r.chunks) rs);
    setups = List.concat_map (fun r -> r.setups) rs;
    syscr = sum (fun r -> r.syscr);
    syscw = sum (fun r -> r.syscw);
    hwm_kb = List.fold_left (fun a r -> max a r.hwm_kb) 0 rs;
    gc =
      {
        minor_words = sumf (fun r -> r.gc.minor_words);
        promoted_words = sumf (fun r -> r.gc.promoted_words);
        minor_gcs = sumf (fun r -> r.gc.minor_gcs);
        major_gcs = sumf (fun r -> r.gc.major_gcs);
      };
  }

(* Set up [servers] fresh servers one after another and measure each for
   an equal share of the window, cut into one-second stretches.  A
   server slows as it runs, so each share starts right after the
   preload.  A fresh server process can also run a tenth faster or
   slower than the one before it, on the same seed; spreading the window
   over several of them keeps one process from setting the result. *)
let run ~exe ~seed ~seconds ~servers (w : W.t) =
  let share = seconds /. float_of_int servers in
  let k = max 1 (int_of_float (Float.round share)) in
  merge
    (List.init servers (fun _ ->
         let c, st = setup ~exe ~seed w in
         window ~seed ~seconds:share ~chunks:k ~setups:[ st.setup_s ] w c st))
