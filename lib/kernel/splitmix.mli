(** SplitMix64 (Steele, Lea & Flood 2014): a small, fast, splittable PRNG.

    Used for every random choice in the repository so that tests,
    simulations and benchmarks are reproducible from one integer seed.
    Derive independent per-process streams with {!split}. *)

type t

val create : int -> t
(** A generator seeded with the given integer. *)

val split : t -> t
(** A statistically independent child stream (advances the parent). *)

val next_int64 : t -> int64
(** The next raw 64-bit output. *)

val bits : t -> int
(** A uniformly random non-negative 62-bit integer. *)

val hash : int -> int
(** [hash seed = bits (create seed)], without allocating: a seeded
    62-bit hash of an integer. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]; rejection-sampled, so unbiased.
    @raise Invalid_argument if [n <= 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool

val domain_local : int -> unit -> t
(** [domain_local salt] is a function returning the calling domain's own
    generator, created on first use from [salt] and the domain id.  The
    blessed way for code outside [lib/kernel] to get per-domain randomness
    without touching [Domain.DLS] directly. *)
