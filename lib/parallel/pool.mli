(** A reusable fork-join pool of OCaml 5 domains.

    [Domain.spawn] costs on the order of a DP pass for small queries, so
    the pool spawns its domains once and parks them on a condition
    variable between jobs; a multi-pass driver (threshold escalation,
    benchmarks) reuses one pool across every pass.  Built entirely from
    the stdlib ([Domain], [Mutex], [Condition], [Atomic]) — no new
    dependencies.

    Concurrency contract: the pool executes one job at a time, submitted
    from a single coordinating domain.  [run] is not reentrant and must
    not be called concurrently from two domains. *)

type t

val create : num_domains:int -> t
(** [create ~num_domains] spawns [num_domains - 1] worker domains (the
    caller of {!run} is worker 0).  Raises [Invalid_argument] outside
    [\[1, 128\]].  A 1-domain pool spawns nothing and runs jobs inline.
    When the runtime refuses a worker (OCaml caps a process at 128 live
    domains, the main one included), the workers already spawned are
    shut down and joined before [Domain.spawn]'s [Failure] is re-raised,
    so a failed [create] holds no domain. *)

val num_domains : t -> int

val run : t -> chunks:int -> (worker:int -> int -> unit) -> unit
(** [run t ~chunks job] executes [job ~worker c] for every chunk index
    [c] in [\[0, chunks)], dynamically load-balanced over the domains
    via an atomic claim counter, and returns once every chunk has
    finished (a barrier: all effects of the job happen-before the
    return).  A worker that wakes only after the caller has claimed the
    last chunk sits the job out, so a job smaller than a wake-up runs on
    the caller alone and does not wait for sleeping workers.  [worker]
    is the dense index in [\[0, num_domains)] of the executing domain —
    index per-domain scratch (counters, buffers) with it to keep workers
    off each other's cache lines.  If the job raises anywhere, remaining
    chunks are abandoned, the barrier still completes, and the first
    exception is re-raised from [run]. *)

val shutdown : t -> unit
(** Terminate and join the worker domains.  Idempotent.  The pool must
    be quiescent (no {!run} in flight). *)
