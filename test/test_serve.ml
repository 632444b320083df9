(* The serve dispatcher and its bounded line reader (lib/serve), in
   process and without sockets: replies match the Wire formatters, the
   default server is a 1-shard router whose shard can be killed, verbs
   whose flag is off answer ERR, QUIT/SHUTDOWN map to close/stop, and a
   line longer than Wire.max_line is refused without being buffered. *)

module Server = Lf_serve.Server
module Svc = Lf_svc.Svc
module Wire = Lf_svc.Wire

let dict = (module Lf_skiplist.Fr_skiplist.Atomic_int : Support.INT_DICT)

let reply =
  Alcotest.testable
    (fun ppf -> function
      | Server.Reply s -> Format.fprintf ppf "Reply %S" s
      | Server.Close -> Format.pp_print_string ppf "Close"
      | Server.Stop s -> Format.fprintf ppf "Stop %S" s)
    ( = )

let text = function
  | Server.Reply s | Server.Stop s -> s
  | Server.Close -> Alcotest.fail "expected a reply line, got Close"

let starts_with ~prefix s = String.starts_with ~prefix s

let check_prefix what prefix s =
  if not (starts_with ~prefix s) then
    Alcotest.failf "%s: %S does not start with %S" what s prefix

let test_ops () =
  let t = Server.create dict in
  let check line expected =
    Alcotest.check reply line (Server.Reply expected) (Server.handle t line)
  in
  let one o = Wire.format_outcome o and many os = Wire.format_multi os in
  check "PUT 1 42" (one (Svc.Served true));
  check "PUT 1 43" (one (Svc.Served false));
  check "GET 1" (one (Svc.Served true));
  check "DEL 1" (one (Svc.Served true));
  check "GET 1" (one (Svc.Served false));
  check "MSET 2 22 3 33" (many [ Svc.Served true; Svc.Served true ]);
  check "MGET 2 3 4"
    (many [ Svc.Served true; Svc.Served true; Svc.Served false ]);
  let metrics = text (Server.handle t "METRICS") in
  check_prefix "METRICS" "# " metrics;
  Alcotest.(check bool) "METRICS carries lf_gc_*" true
    (List.exists
       (starts_with ~prefix:"lf_gc_minor_words_total ")
       (String.split_on_char '\n' metrics));
  Alcotest.(check bool) "METRICS ends with END" true
    (String.ends_with ~suffix:"\nEND" metrics)

let test_health_and_kill () =
  let t = Server.create dict in
  check_prefix "default HEALTH" "ok shards=1 " (text (Server.handle t "HEALTH"));
  Alcotest.check reply "KILL 5" (Server.Reply (Wire.format_error "bad shard"))
    (Server.handle t "KILL 5");
  (* Without a breaker a killed shard fails its requests but never trips,
     so only the breaker-backed server below turns degraded. *)
  let t = Server.create ~breaker:true dict in
  Alcotest.check reply "KILL 0" (Server.Reply "OK true") (Server.handle t "KILL 0");
  for i = 0 to 19 do
    ignore (Server.handle t (Printf.sprintf "PUT %d %d" i i))
  done;
  let health = text (Server.handle t "HEALTH") in
  check_prefix "HEALTH after KILL 0" "degraded shards=1 " health;
  Alcotest.(check bool) "s0=degraded" true
    (List.mem "s0=degraded(open)" (String.split_on_char ' ' health))

let test_flags_off () =
  let t = Server.create dict in
  List.iter
    (fun line ->
      check_prefix line "ERR " (text (Server.handle t line)))
    [ "REPLICAS"; "HEAL"; "FLIGHTDUMP"; "PUT 1"; "GET x"; ""; "FROB 1";
      "MGET 1 1" ]

let test_quit_shutdown () =
  let t = Server.create dict in
  Alcotest.check reply "QUIT" Server.Close (Server.handle t "QUIT");
  Alcotest.check reply "SHUTDOWN" (Server.Stop "OK true")
    (Server.handle t "SHUTDOWN")

let test_create_rejects () =
  let rejects what f =
    match f () with
    | _ -> Alcotest.failf "%s with 1 shard was accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "replicas" (fun () -> Server.create ~replicas:true dict);
  rejects "self-heal" (fun () -> Server.create ~self_heal:true dict);
  rejects "0 shards" (fun () -> Server.create ~shards:0 dict);
  let t = Server.create ~shards:3 ~replicas:true ~self_heal:true dict in
  check_prefix "3-shard REPLICAS" "REPLICAS n=3 " (text (Server.handle t "REPLICAS"));
  check_prefix "3-shard HEAL" "HEAL " (text (Server.handle t "HEAL"))

(* The longest well-formed line: MSET of max_batch distinct keys, every
   integer as wide as min_int, plus a telnet [\r]. *)
let longest_mset () =
  let b = Buffer.create Wire.max_line in
  Buffer.add_string b "MSET";
  for i = 0 to Wire.max_batch - 1 do
    Printf.bprintf b " %d %d" (min_int + i) min_int
  done;
  Buffer.add_char b '\r';
  Buffer.contents b

let test_max_line () =
  let line = longest_mset () in
  Alcotest.(check int) "length" Wire.max_line (String.length line);
  let t = Server.create dict in
  check_prefix "longest MSET" (Printf.sprintf "MULTI %d t " Wire.max_batch)
    (text (Server.handle t line))

(* The reader over a pipe: lines in order, a last line without newline,
   the longest line accepted, one byte more refused. *)
let with_pipe f =
  let rd, wr = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close rd with Unix.Unix_error _ -> ());
      try Unix.close wr with Unix.Unix_error _ -> ())
    (fun () -> f rd wr)

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let line =
  Alcotest.testable
    (fun ppf -> function
      | Server.Line s -> Format.fprintf ppf "Line (%d bytes)" (String.length s)
      | Server.Too_long -> Format.pp_print_string ppf "Too_long"
      | Server.Eof -> Format.pp_print_string ppf "Eof")
    ( = )

let test_reader_lines () =
  with_pipe (fun rd wr ->
      let longest = String.make Wire.max_line 'x' in
      write_all wr ("GET 1\nPUT 2 3\r\n" ^ longest ^ "\nlast");
      Unix.close wr;
      let r = Server.reader rd in
      Alcotest.check line "first" (Server.Line "GET 1") (Server.read_line r);
      Alcotest.check line "second" (Server.Line "PUT 2 3\r") (Server.read_line r);
      Alcotest.check line "longest" (Server.Line longest) (Server.read_line r);
      Alcotest.check line "unterminated last" (Server.Line "last")
        (Server.read_line r);
      Alcotest.check line "eof" Server.Eof (Server.read_line r))

let test_reader_too_long () =
  with_pipe (fun rd wr ->
      write_all wr (String.make (Wire.max_line + 1) 'x' ^ "\nGET 1\n");
      let r = Server.reader rd in
      Alcotest.check line "max_line + 1" Server.Too_long (Server.read_line r));
  (* A line twice the reader's capacity, still unterminated: refused
     after at most [reader_capacity] bytes, the rest left unread. *)
  with_pipe (fun rd wr ->
      let sent = 2 * Server.reader_capacity in
      write_all wr (String.make sent 'x');
      let r = Server.reader rd in
      Alcotest.check line "oversized" Server.Too_long (Server.read_line r);
      Unix.close wr;
      let rest = Bytes.create sent in
      let rec drain n =
        match Unix.read rd rest 0 sent with 0 -> n | k -> drain (n + k)
      in
      let unread = drain 0 in
      Alcotest.(check bool)
        (Printf.sprintf "%d of %d bytes left unread" unread sent)
        true
        (unread >= sent - Server.reader_capacity))

let () =
  Alcotest.run "serve"
    [
      ( "handle",
        [
          Alcotest.test_case "replies match Wire" `Quick test_ops;
          Alcotest.test_case "HEALTH and KILL on one shard" `Quick
            test_health_and_kill;
          Alcotest.test_case "verbs off and malformed lines answer ERR"
            `Quick test_flags_off;
          Alcotest.test_case "QUIT closes, SHUTDOWN stops" `Quick
            test_quit_shutdown;
          Alcotest.test_case "create rejects replicas/self-heal on 1 shard"
            `Quick test_create_rejects;
          Alcotest.test_case "longest MSET is max_line" `Quick test_max_line;
        ] );
      ( "reader",
        [
          Alcotest.test_case "lines over a pipe" `Quick test_reader_lines;
          Alcotest.test_case "oversized lines refused unbuffered" `Quick
            test_reader_too_long;
        ] );
    ]
