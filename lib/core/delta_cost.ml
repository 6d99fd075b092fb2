(* Incremental evaluation of objective (6).  See delta_cost.mli for the
   contract; the invariants maintained here mirror Cost_model exactly:

     quad.(t)   = Σ_a c1.(t).(a) · [placed.(a).(home t)]
     workq.(t)  = Σ_a c3.(t).(a) · [placed.(a).(home t)]
     work.(s)   = Σ_{t at s} workq.(t) + Σ_a c4.(a) · [placed.(a).(s)]
     cost_quad  = Σ_t quad.(t)
     cost_lin   = Σ_a c2.(a) · repl.(a)
     lat.wq_rc.(q) = Σ_{a ∈ attrs q} (repl.(a) − [placed.(a).(home q)])
     lat.total  = Σ_{write q, wq_rc > 0} f_q          (ψ_q of Appendix A)

   so that objective (6) = λ·(cost_quad + cost_lin)
                           + (1−λ)·max_s work.(s) [+ λ·pl·lat.total].

   A per-site transaction index (site_txns/site_len/pos, swap-remove)
   makes a Flip O(transactions homed on the flipped site) instead of
   O(all transactions). *)

type prim =
  | PFlip of int * int          (* attr, site: toggle *)
  | PAssign of int * int        (* txn, site it came from *)

type move =
  | Flip of int * int
  | Assign of int * int
  | Move_component of int array * int array * int

type lat = {
  pl : float;
  wq_txn : int array;           (* home transaction of each write query *)
  wq_freq : float array;
  wq_attrs : int array array;
  wq_rc : int array;            (* remote-replica count, ψ_q = rc > 0 *)
  attr_wqs : int array array;   (* attr -> write queries accessing it *)
  txn_wqs : int array array;    (* txn -> its write queries *)
  mutable total : float;
}

type t = {
  stats : Stats.t;
  lambda : float;
  part : Partitioning.t;
  quad : Vec.t;
  workq : Vec.t;
  work : Vec.t;
  mutable cost_quad : float;
  mutable cost_lin : float;
  repl : int array;
  site_txns : int array array;
  site_len : int array;
  pos : int array;
  lat : lat option;
  mutable journal : prim list list;
  mutable jlen : int;
  mutable nmoves : int;
}

let partitioning t = t.part
let moves_applied t = t.nmoves
let replicas t a = t.repl.(a)
let cost t = t.cost_quad +. t.cost_lin

let max_site_work t =
  (* same fold as Cost_model.max_site_work: max over sites, floor 0 *)
  let m = ref 0. in
  for s = 0 to Vec.length t.work - 1 do
    m := Float.max !m t.work.{s}
  done;
  !m

let site_work t = Vec.to_array t.work

let objective t =
  let base =
    (t.lambda *. cost t) +. ((1. -. t.lambda) *. max_site_work t)
  in
  match t.lat with
  | None -> base
  | Some l -> base +. (t.lambda *. l.pl *. l.total)

(* ------------------------------------------------------------------ *)
(* Cache construction / resync                                         *)
(* ------------------------------------------------------------------ *)

let make_lat (inst : Instance.t) pl =
  let wl = inst.Instance.workload in
  let nq = Workload.num_queries wl in
  let writes = ref [] in
  for q = nq - 1 downto 0 do
    if Workload.is_write (Workload.query wl q) then writes := q :: !writes
  done;
  let wq = Array.of_list !writes in
  let wq_txn = Array.map (Workload.txn_of_query wl) wq in
  let wq_freq = Array.map (fun q -> (Workload.query wl q).Workload.freq) wq in
  let wq_attrs =
    Array.map (fun q -> Array.of_list (Workload.query wl q).Workload.attrs) wq
  in
  let na = Instance.num_attrs inst and nt = Instance.num_transactions inst in
  let bucket n keys_of m =
    let counts = Array.make n 0 in
    for i = 0 to m - 1 do
      List.iter (fun k -> counts.(k) <- counts.(k) + 1) (keys_of i)
    done;
    let out = Array.init n (fun k -> Array.make counts.(k) 0) in
    let fill = Array.make n 0 in
    for i = 0 to m - 1 do
      List.iter
        (fun k ->
           out.(k).(fill.(k)) <- i;
           fill.(k) <- fill.(k) + 1)
        (keys_of i)
    done;
    out
  in
  let nw = Array.length wq in
  let attr_wqs = bucket na (fun i -> Array.to_list wq_attrs.(i)) nw in
  let txn_wqs = bucket nt (fun i -> [ wq_txn.(i) ]) nw in
  {
    pl;
    wq_txn;
    wq_freq;
    wq_attrs;
    wq_rc = Array.make nw 0;
    attr_wqs;
    txn_wqs;
    total = 0.;
  }

(* rc of one write query, from scratch, for an (assumed) home site. *)
let fresh_rc t (l : lat) i home =
  let rc = ref 0 in
  Array.iter
    (fun a ->
       rc := !rc + t.repl.(a) - (if t.part.Partitioning.placed.(a).(home) then 1 else 0))
    l.wq_attrs.(i);
  !rc

let rebuild t =
  let stats = t.stats and part = t.part in
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = part.Partitioning.num_sites in
  Vec.fill t.work 0.;
  Array.fill t.site_len 0 ns 0;
  t.cost_quad <- 0.;
  t.cost_lin <- 0.;
  for tx = 0 to nt - 1 do
    let home = part.Partitioning.txn_site.(tx) in
    let c1t = Vec.row stats.Stats.c1 tx and c3t = Vec.row stats.Stats.c3 tx in
    let q = ref 0. and w = ref 0. in
    for a = 0 to na - 1 do
      if part.Partitioning.placed.(a).(home) then begin
        q := !q +. c1t.{a};
        w := !w +. c3t.{a}
      end
    done;
    t.quad.{tx} <- !q;
    t.workq.{tx} <- !w;
    t.cost_quad <- t.cost_quad +. !q;
    t.work.{home} <- t.work.{home} +. !w;
    t.pos.(tx) <- t.site_len.(home);
    t.site_txns.(home).(t.site_len.(home)) <- tx;
    t.site_len.(home) <- t.site_len.(home) + 1
  done;
  for a = 0 to na - 1 do
    let row = part.Partitioning.placed.(a) in
    let r = ref 0 in
    for s = 0 to ns - 1 do
      if row.(s) then begin
        incr r;
        t.work.{s} <- t.work.{s} +. stats.Stats.c4.(a)
      end
    done;
    t.repl.(a) <- !r;
    t.cost_lin <- t.cost_lin +. (float_of_int !r *. stats.Stats.c2.(a))
  done;
  match t.lat with
  | None -> ()
  | Some l ->
    l.total <- 0.;
    for i = 0 to Array.length l.wq_rc - 1 do
      let rc = fresh_rc t l i part.Partitioning.txn_site.(l.wq_txn.(i)) in
      l.wq_rc.(i) <- rc;
      if rc > 0 then l.total <- l.total +. l.wq_freq.(i)
    done

let resync t = rebuild t

let create ?latency (stats : Stats.t) ~lambda (part : Partitioning.t) =
  let nt = stats.Stats.num_txns
  and na = stats.Stats.num_attrs
  and ns = part.Partitioning.num_sites in
  let t =
    {
      stats;
      lambda;
      part;
      quad = Vec.create nt;
      workq = Vec.create nt;
      work = Vec.create ns;
      cost_quad = 0.;
      cost_lin = 0.;
      repl = Array.make na 0;
      site_txns = Array.init ns (fun _ -> Array.make nt 0);
      site_len = Array.make ns 0;
      pos = Array.make nt 0;
      lat = Option.map (fun (inst, pl) -> make_lat inst pl) latency;
      journal = [];
      jlen = 0;
      nmoves = 0;
    }
  in
  rebuild t;
  t

(* ------------------------------------------------------------------ *)
(* Primitive moves                                                     *)
(* ------------------------------------------------------------------ *)

let set_rc (l : lat) i rc' =
  if rc' > 0 <> (l.wq_rc.(i) > 0) then
    l.total <-
      l.total +. (if rc' > 0 then l.wq_freq.(i) else -.l.wq_freq.(i));
  l.wq_rc.(i) <- rc'

let prim_flip t a s =
  t.nmoves <- t.nmoves + 1;
  let stats = t.stats and part = t.part in
  let row = part.Partitioning.placed.(a) in
  let adding = not row.(s) in
  let sign = if adding then 1. else -1. in
  row.(s) <- adding;
  t.repl.(a) <- t.repl.(a) + (if adding then 1 else -1);
  t.cost_lin <- t.cost_lin +. (sign *. stats.Stats.c2.(a));
  t.work.{s} <- t.work.{s} +. (sign *. stats.Stats.c4.(a));
  let lst = t.site_txns.(s) in
  for i = 0 to t.site_len.(s) - 1 do
    let tx = lst.(i) in
    let dq = sign *. stats.Stats.c1.{tx, a} in
    let dw = sign *. stats.Stats.c3.{tx, a} in
    t.quad.{tx} <- t.quad.{tx} +. dq;
    t.cost_quad <- t.cost_quad +. dq;
    t.workq.{tx} <- t.workq.{tx} +. dw;
    t.work.{s} <- t.work.{s} +. dw
  done;
  match t.lat with
  | None -> ()
  | Some l ->
    (* rc = Σ repl − [placed at home]: both terms move together when the
       flipped site is the query's home, so only off-home flips count. *)
    let d = if adding then 1 else -1 in
    Array.iter
      (fun i ->
         if part.Partitioning.txn_site.(l.wq_txn.(i)) <> s then
           set_rc l i (l.wq_rc.(i) + d))
      l.attr_wqs.(a)

(* Returns [false] (and does nothing) when [tx] is already on [s]. *)
let prim_assign t tx s =
  let stats = t.stats and part = t.part in
  let s_old = part.Partitioning.txn_site.(tx) in
  if s_old = s then false
  else begin
    t.nmoves <- t.nmoves + 1;
    (* swap-remove from the old site's transaction list *)
    let lst = t.site_txns.(s_old) in
    let last = t.site_len.(s_old) - 1 in
    let i = t.pos.(tx) in
    let moved = lst.(last) in
    lst.(i) <- moved;
    t.pos.(moved) <- i;
    t.site_len.(s_old) <- last;
    let lst' = t.site_txns.(s) in
    t.pos.(tx) <- t.site_len.(s);
    lst'.(t.site_len.(s)) <- tx;
    t.site_len.(s) <- t.site_len.(s) + 1;
    part.Partitioning.txn_site.(tx) <- s;
    t.cost_quad <- t.cost_quad -. t.quad.{tx};
    t.work.{s_old} <- t.work.{s_old} -. t.workq.{tx};
    (* fresh row widths against the new home (exact, not incremental) *)
    let c1t = Vec.row stats.Stats.c1 tx and c3t = Vec.row stats.Stats.c3 tx in
    let q = ref 0. and w = ref 0. in
    for a = 0 to stats.Stats.num_attrs - 1 do
      if part.Partitioning.placed.(a).(s) then begin
        q := !q +. c1t.{a};
        w := !w +. c3t.{a}
      end
    done;
    t.quad.{tx} <- !q;
    t.workq.{tx} <- !w;
    t.cost_quad <- t.cost_quad +. !q;
    t.work.{s} <- t.work.{s} +. !w;
    (match t.lat with
     | None -> ()
     | Some l ->
       Array.iter
         (fun i -> set_rc l i (fresh_rc t l i s))
         l.txn_wqs.(tx));
    true
  end

(* ------------------------------------------------------------------ *)
(* Journaled moves                                                     *)
(* ------------------------------------------------------------------ *)

let apply_move t move =
  let before = objective t in
  let prims = ref [] in
  let flip a s =
    prim_flip t a s;
    prims := PFlip (a, s) :: !prims
  in
  let assign tx s =
    let s_old = t.part.Partitioning.txn_site.(tx) in
    if prim_assign t tx s then prims := PAssign (tx, s_old) :: !prims
  in
  (match move with
   | Flip (a, s) -> flip a s
   | Assign (tx, s) -> assign tx s
   | Move_component (txns, attrs, s) ->
     (* place on the target first so rows never go empty mid-move *)
     Array.iter
       (fun a -> if not (t.part.Partitioning.placed.(a).(s)) then flip a s)
       attrs;
     Array.iter (fun tx -> assign tx s) txns;
     Array.iter
       (fun a ->
          let row = t.part.Partitioning.placed.(a) in
          for s' = 0 to t.part.Partitioning.num_sites - 1 do
            if s' <> s && row.(s') then flip a s'
          done)
       attrs);
  t.journal <- !prims :: t.journal;
  t.jlen <- t.jlen + 1;
  objective t -. before

let undo_move t =
  match t.journal with
  | [] -> invalid_arg "Delta_cost.undo_move: empty journal"
  | prims :: rest ->
    t.journal <- rest;
    t.jlen <- t.jlen - 1;
    (* [prims] holds the primitives most-recent-first: applying inverses
       in list order unwinds the composite exactly. *)
    List.iter
      (function
        | PFlip (a, s) -> prim_flip t a s
        | PAssign (tx, s_old) -> ignore (prim_assign t tx s_old))
      prims

let mark t = t.jlen

let undo_to t m =
  while t.jlen > m do
    undo_move t
  done
