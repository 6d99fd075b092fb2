(* Fork/join executor over OCaml 5 domains.

   Shape: a pool owns [jobs - 1] worker domains parked on a condition
   variable.  A batch pre-seeds one fixed-capacity work-stealing deque
   per participant (round-robin), wakes the workers, and the caller
   participates as participant 0.  Owners pop their own deque LIFO;
   idle participants steal FIFO from the others (Chase-Lev discipline,
   simplified by the fact that nothing is pushed after the batch
   starts, so the buffers never grow).  An atomic count of unfinished
   tasks tells the caller when the batch is complete; workers go back
   to sleep as soon as a full sweep finds nothing left to run. *)

(* ------------------------------------------------------------------ *)
(* Work-stealing deque, fixed capacity, pre-seeded                     *)
(* ------------------------------------------------------------------ *)

module Deque = struct
  type 'a t = {
    buf : 'a option array;
    top : int Atomic.t;     (* next index a thief takes *)
    bottom : int Atomic.t;  (* one past the last index the owner owns *)
  }

  let of_list tasks =
    let buf = Array.of_list (List.map Option.some tasks) in
    { buf; top = Atomic.make 0; bottom = Atomic.make (Array.length buf) }

  (* Owner end: LIFO.  Only the owning participant calls this. *)
  let pop t =
    let b = Atomic.get t.bottom - 1 in
    Atomic.set t.bottom b;
    let tp = Atomic.get t.top in
    if b > tp then t.buf.(b)
    else if b = tp then begin
      (* Last element: race thieves for it via [top]. *)
      let won = Atomic.compare_and_set t.top tp (tp + 1) in
      Atomic.set t.bottom (tp + 1);
      if won then t.buf.(b) else None
    end
    else begin
      Atomic.set t.bottom tp;
      None
    end

  (* Thief end: FIFO.  Any participant may call this.  A failed CAS
     means another thief advanced [top]; retry so an idle sweep never
     walks past a deque that still holds work ([top] is monotone, so
     there is no ABA and the retry terminates). *)
  let rec steal t =
    let tp = Atomic.get t.top in
    let b = Atomic.get t.bottom in
    if tp >= b then None
    else
      let x = t.buf.(tp) in
      if Atomic.compare_and_set t.top tp (tp + 1) then x else steal t
end

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

type batch = {
  deques : (unit -> unit) Deque.t array;  (* one per participant *)
  remaining : int Atomic.t;               (* tasks not yet completed *)
  gen : int;                              (* batch generation stamp *)
}

type pool = {
  jobs : int;
  mutable domains : unit Domain.t array;
  lock : Mutex.t;
  wake : Condition.t;
  mutable current : batch option;  (* guarded by [lock] *)
  mutable generation : int;        (* guarded by [lock] *)
  mutable stopping : bool;         (* guarded by [lock] *)
  busy : bool Atomic.t;            (* a batch is being submitted/run *)
}

let recommended_jobs () = Domain.recommended_domain_count ()

(* Run tasks from [deques], preferring participant [me]'s own deque and
   stealing round-robin from the others once it is empty.  Returns when
   a full sweep over every deque finds nothing runnable. *)
let participate ~me (b : batch) =
  let n = Array.length b.deques in
  let run task =
    task ();
    Atomic.decr b.remaining
  in
  let rec own () =
    match Deque.pop b.deques.(me) with
    | Some task -> run task; own ()
    | None -> sweep 1
  and sweep k =
    if k >= n then ()
    else
      match Deque.steal b.deques.((me + k) mod n) with
      | Some task -> run task; own ()
      | None -> sweep (k + 1)
  in
  own ()

let worker pool me () =
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock pool.lock;
    let rec await () =
      if pool.stopping then None
      else
        match pool.current with
        | Some b when b.gen > !last_gen -> Some b
        | _ ->
          Condition.wait pool.wake pool.lock;
          await ()
    in
    let next = await () in
    Mutex.unlock pool.lock;
    match next with
    | None -> ()
    | Some b ->
      last_gen := b.gen;
      participate ~me b;
      loop ()
  in
  loop ()

let create ~jobs =
  if jobs < 1 then invalid_arg "Par.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      domains = [||];
      lock = Mutex.create ();
      wake = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      busy = Atomic.make false;
    }
  in
  pool.domains <-
    Array.init (jobs - 1) (fun i -> Domain.spawn (worker pool (i + 1)));
  pool

let size pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.lock;
  pool.stopping <- true;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.lock;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Batch submission                                                    *)
(* ------------------------------------------------------------------ *)

let run_list pool tasks =
  let ntasks = List.length tasks in
  if ntasks = 0 then ()
  else begin
    let first_exn = Atomic.make None in
    let guard task () =
      try task ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set first_exn None (Some (e, bt)))
    in
    let reraise () =
      match Atomic.get first_exn with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    in
    if pool.jobs = 1 then begin
      (* Degenerate pool: same semantics (all tasks run, first exception
         re-raised at the end), no domains involved. *)
      List.iter (fun task -> guard task ()) tasks;
      reraise ()
    end
    else begin
      if not (Atomic.compare_and_set pool.busy false true) then
        invalid_arg "Par.run_list: pool is already running a batch";
      Fun.protect ~finally:(fun () -> Atomic.set pool.busy false)
      @@ fun () ->
      (* Round-robin the tasks over one deque per participant. *)
      let buckets = Array.make pool.jobs [] in
      List.iteri
        (fun i task -> buckets.(i mod pool.jobs) <- guard task :: buckets.(i mod pool.jobs))
        tasks;
      let deques = Array.map (fun l -> Deque.of_list (List.rev l)) buckets in
      let b = { deques; remaining = Atomic.make ntasks; gen = 0 } in
      Mutex.lock pool.lock;
      pool.generation <- pool.generation + 1;
      let b = { b with gen = pool.generation } in
      pool.current <- Some b;
      Condition.broadcast pool.wake;
      Mutex.unlock pool.lock;
      (* The caller is participant 0. *)
      participate ~me:0 b;
      (* Our sweep found nothing, but stolen tasks may still be running
         on workers: spin until every task has completed. *)
      while Atomic.get b.remaining > 0 do
        Domain.cpu_relax ()
      done;
      Mutex.lock pool.lock;
      pool.current <- None;
      Mutex.unlock pool.lock;
      reraise ()
    end
  end

let map_array pool f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    let task i () = out.(i) <- Some (f arr.(i)) in
    run_list pool (List.init n task);
    Array.map
      (function
        | Some v -> v
        | None ->
          (* Only reachable when the producing task raised; run_list
             re-raised already unless another task's exception won. *)
          failwith "Par.map_array: task produced no result")
      out
  end

let map_list pool f l = Array.to_list (map_array pool f (Array.of_list l))
