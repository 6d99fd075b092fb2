(** Domain-pool executor for OCaml 5 parallelism.

    [Par] is a small, dependency-free fork/join executor used to
    parallelize the branch-and-bound search ([Mip.solve ~jobs]), the
    simulated-annealing portfolio ([Sa_solver] with [restarts > 1]) and
    the CLI/bench batch fan-outs.  A pool owns [jobs - 1] worker domains
    (the calling domain is the [jobs]-th participant); a batch of tasks
    is distributed round-robin over per-participant work-stealing deques
    (owner pops LIFO, thieves steal FIFO), so uneven task costs balance
    automatically.

    Determinism contract: [Par] never decides *what* is computed — only
    *where*.  Callers that need reproducible results must make each task
    self-contained (own RNG stream via {!Rng.split}, own solver state)
    and combine results in submission order, which is exactly what
    {!map_array} / {!map_list} provide.

    A pool is not reentrant: tasks must not submit new batches to the
    pool that is running them (nested parallelism would deadlock the
    caller's participation loop).  Submitting two batches concurrently
    from different domains is likewise a programming error and raises
    [Invalid_argument]. *)

type pool
(** A fixed set of worker domains plus the calling domain. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the hardware parallelism
    available to this process. *)

val create : jobs:int -> pool
(** [create ~jobs] spawns [jobs - 1] worker domains.  [jobs <= 1] builds
    a degenerate pool that runs every batch sequentially on the caller —
    useful as a universal code path.  @raise Invalid_argument if
    [jobs < 1]. *)

val size : pool -> int
(** Total participants (worker domains + the caller), i.e. the [jobs]
    given to {!create}. *)

val shutdown : pool -> unit
(** Join all worker domains.  Idempotent.  Every pool must be shut down
    or its domains outlive the batch and keep the runtime alive. *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down on
    exit (normal or exceptional). *)

val run_list : pool -> (unit -> unit) list -> unit
(** Run every task to completion, in parallel across the pool.  If any
    task raises, one of the raised exceptions is re-raised in the caller
    after all tasks have finished (no task is abandoned mid-flight). *)

val map_list : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Parallel map; results are returned in submission order regardless of
    which domain computed them.  Exception behaviour as {!run_list}. *)

val map_array : pool -> ('a -> 'b) -> 'a array -> 'b array
(** Array analogue of {!map_list}. *)
