(** The [lfdict serve] server, one shape for every configuration: a
    {!Lf_shard.Router} over [shards] dictionary instances, each behind its
    own [lib/svc] pipeline built from the same flags.  The default, one
    shard, is the plain server, so HEALTH is always the per-shard line,
    METRICS always carries the [lf_shard_*] blocks, and [KILL 0] works on
    a plain server too.  {!handle} is the socket-free dispatcher; {!run}
    is the sequential TCP transport around it. *)

type t

val create :
  ?deadline_ms:int ->
  ?retry:int ->
  ?retry_budget:int ->
  ?shed:int ->
  ?breaker:bool ->
  ?shards:int ->
  ?trace_requests:bool ->
  ?dump_dir:string ->
  ?self_heal:bool ->
  ?replicas:bool ->
  ?key_range:int ->
  ?backoff:(int -> unit) ->
  (module Lf_kernel.Dict_intf.S with type key = int) ->
  t
(** A server over fresh instances of the dictionary, configured as the
    [lfdict serve] flags of the same names document (defaults: every
    policy off, 1 shard, key range 4096, dumps into ["flight-dumps"]).
    [backoff] waits out a retry delay in nanosecond ticks; as in
    {!Lf_svc.Svc.config} the default does not wait.  Resets the
    process-wide recorder and runs it at [Histograms].
    @raise Invalid_argument if [shards < 1], or if [self_heal] or
    [replicas] is asked for with one shard. *)

type reply =
  | Reply of string  (** one line to send, without its newline *)
  | Close  (** QUIT: close this connection, sending nothing *)
  | Stop of string  (** SHUTDOWN: send the line, then stop serving *)

val handle : t -> string -> reply
(** One protocol line ({!Lf_svc.Wire}): tick the supervisor or replica
    applier, parse, run the request through the router under its root
    span, count it against the SLO, and fire any flight-recorder dump. *)

type line = Line of string | Too_long | Eof

type reader

val reader_capacity : int
(** Bytes a {!reader} buffers at most: 16 KiB. *)

val reader : Unix.file_descr -> reader

val read_line : reader -> line
(** The next line without its newline; a last unterminated line comes
    before [Eof].  [Too_long] as soon as the line is known to exceed
    {!Lf_svc.Wire.max_line}; the rest of it stays unread. *)

val run : t -> port:int -> unit
(** Print [lfdict serve: <impl> on 127.0.0.1:<port>], then serve one
    connection at a time until SHUTDOWN.  A line longer than
    {!Lf_svc.Wire.max_line} is answered [ERR line too long] and its
    connection closed. *)
