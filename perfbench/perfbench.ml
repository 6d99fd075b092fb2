(* The repository's benchmark: three closed-loop workloads with one caller
   on one domain, end-to-end metrics with tracing off (--trace 0) and
   per-layer metrics from a traced run (--trace 1).  Run it through
   run.py, which builds this executable first:

     python3 perfbench/run.py --workload prove-optimal --seed 1 \
       --seconds 30 --trace 0

   The last line of standard output is the result object; earlier lines
   carry provenance, the host's speed and sample counts.  Spans and work
   counters are written under perfbench/_out.  See README.md next to this
   file. *)

open Vpart
module Diagnostic = Vpart_analysis.Diagnostic
module Certify = Vpart_certify.Certify

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 30
let traced_run = ref false
let git_rev = ref "unknown"
let out_dir = "perfbench/_out"

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload,
       "NAME prove-optimal | paper-scale | stream");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S length of the measured window");
      ("--trace", Arg.Int (fun t -> traced_run := t <> 0),
       "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--git-rev", Arg.Set_string git_rev, "REV provenance stamp") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds < 1 then begin
    prerr_endline "perfbench: --seed must be >= 0 and --seconds >= 1";
    exit 2
  end

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.
let sumi f = List.fold_left (fun acc x -> acc + f x) 0
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* The shared host's speed drifts by tens of percent over tens of
   seconds, for any code alike, so raw wall times of the same work spread
   past any useful bound between runs.  Each timed unit of work is
   therefore followed by a fixed calibration kernel, independent of the
   library, and its wall time is scaled by the kernel's reference time
   over its measured time, the mean of the kernel runs just before and
   just after the unit.  The end-to-end times are so in seconds of the
   reference host. *)

module Host = struct
  (* The kernel mixes the three kinds of work whose speed the host's drift
     changes differently: scattered float updates within 1 MiB (core
     caches), the same over 8 MiB (shared cache and memory), and a chain
     of dependent float operations in registers.  It allocates nothing,
     so its time does not depend on the heap the library leaves behind. *)
  let small = 1 lsl 17
  let large = 1 lsl 20

  let buffer n =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    Bigarray.Array1.fill a 1e-3;
    a

  let small_buf = buffer small
  let large_buf = buffer large

  (* Resident size of the two buffers, left out of [peak_rss_mb]. *)
  let buffers_mb = float_of_int (8 * (small + large)) /. 1048576.

  let scatter (a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t)
      updates =
    let mask = Bigarray.Array1.dim a - 1 in
    for i = 0 to updates - 1 do
      let j = (i * 7919) land mask in
      a.{j} <- (a.{j} *. 0.999) +. (a.{i land mask} *. 1e-3)
    done

  let kernel () =
    scatter small_buf (8 * small);
    scatter large_buf small;
    let s = ref 1.0 in
    for i = 1 to 1_500_000 do
      s := (!s *. 1.0000001) +. (float_of_int (i land 7) *. 1e-9)
    done;
    !s +. small_buf.{0} +. large_buf.{0}

  (* One kernel run on the host the benchmark was built on, in seconds:
     its median over the runs made there in a fast period. *)
  let reference_s = 0.0060

  let kernel_runs : float list ref = ref []
  let raw_total = ref 0.
  let scaled_total = ref 0.

  (* Mean wall time of one kernel run, over at least [min_s] of runs. *)
  let measure min_s =
    let t0 = now () in
    let rec go k =
      ignore (Sys.opaque_identity (kernel ()));
      let el = now () -. t0 in
      if el >= min_s then el /. float_of_int k else go (k + 1)
    in
    let c = go 1 in
    kernel_runs := c :: !kernel_runs;
    c

  let last = ref None

  (* [f ()], its wall time and the factor that turns the wall time into
     reference seconds.  The kernel runs for a twentieth of the unit's
     time after it, and at least 20 ms. *)
  let timed f =
    let before = match !last with Some c -> c | None -> measure 0.02 in
    let t0 = now () in
    let x = f () in
    let dt = now () -. t0 in
    let after = measure (Float.max 0.02 (dt /. 20.)) in
    last := Some after;
    let k = reference_s /. ((before +. after) /. 2.) in
    raw_total := !raw_total +. dt;
    scaled_total := !scaled_total +. (dt *. k);
    (x, dt, k)

  (* [f ()] and its wall time in reference seconds. *)
  let scaled f =
    let x, dt, k = timed f in
    (x, dt *. k)
end

(* ------------------------------------------------------------------ *)
(* Spans: recorded in memory around each call into a library layer,    *)
(* written out at exit.  Off, [with_] is a single flag test.           *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type t = {
    id : int;
    parent : int;  (* -1 for a root span *)
    req : int;     (* request id, inherited from the parent; -1 for none *)
    name : string;
    t0 : float;
    t1 : float;
  }

  let on = ref false
  let recorded : t list ref = ref []
  let next_id = ref 0
  let stack : (int * int) list ref = ref []

  let with_ ?req name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent, inherited =
        match !stack with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
      in
      let req = Option.value req ~default:inherited in
      stack := (id, req) :: !stack;
      let t0 = now () in
      Fun.protect f ~finally:(fun () ->
          let t1 = now () in
          stack := List.tl !stack;
          recorded := { id; parent; req; name; t0; t1 } :: !recorded)
    end

  let dur s = s.t1 -. s.t0
  let named name = List.filter (fun s -> s.name = name) !recorded

  (* Mean duration of the spans called [name], in milliseconds. *)
  let mean_ms name =
    match named name with
    | [] -> 0.
    | l -> 1000. *. sum (List.map dur l) /. float_of_int (List.length l)

  (* Share of the wall time of the root spans called [root] that their
     direct children, the calls into library layers, cover. *)
  let coverage_pct root =
    let roots = named root in
    let ids = Hashtbl.create 64 in
    List.iter (fun r -> Hashtbl.replace ids r.id ()) roots;
    let covered =
      List.filter (fun s -> Hashtbl.mem ids s.parent) !recorded
      |> List.map dur |> sum
    in
    100. *. ratio covered (sum (List.map dur roots))

  let write path ~header =
    let oc = open_out path in
    output_string oc (header ^ "\n");
    let origin =
      List.fold_left (fun m s -> Float.min m s.t0) infinity !recorded
    in
    List.iter
      (fun s ->
         Printf.fprintf oc
           "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\
            \"start\":%.6f,\"end\":%.6f}\n"
           s.id s.parent s.req s.name (s.t0 -. origin) (s.t1 -. origin))
      (List.rev !recorded);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Correctness checks and the work-determinism self-check              *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* One checked call: counted in [attempted], and in [failed] unless every
   condition held.  A failure is reported and the run goes on. *)
let check label ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: FAILED %s\n%!" label
  end

let clean = function
  | Some ds -> not (Diagnostic.has_errors ds)
  | None -> false

(* Exact work counters per call label.  Two repeats of one label, in this
   run or in an earlier run of the same executable, must agree: the
   workloads are deterministic work, so wall-clock spread is host noise. *)
let work : (string, string) Hashtbl.t = Hashtbl.create 64
let work_mismatches = ref 0

let record_work label value =
  match Hashtbl.find_opt work label with
  | Some v when v <> value ->
    incr work_mismatches;
    Printf.eprintf
      "perfbench: WORK COUNTERS DIFFER between repeats of %s:\n  %s\n  %s\n%!"
      label v value
  | Some _ -> ()
  | None -> Hashtbl.replace work label value

let work_file () =
  Filename.concat out_dir
    (Printf.sprintf "work-%s-%s.tsv" !workload
       (String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12))

let load_work () =
  match open_in (work_file ()) with
  | exception Sys_error _ -> ()
  | ic ->
    (try
       while true do
         match String.split_on_char '\t' (input_line ic) with
         | [ label; value ] -> record_work label value
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic

let save_work () =
  if Hashtbl.length work > 0 then begin
    let oc = open_out (work_file ()) in
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) work []
    |> List.sort compare
    |> List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v);
    close_out oc
  end

(* ------------------------------------------------------------------ *)
(* Results feeding the per-layer metrics                               *)
(* ------------------------------------------------------------------ *)

(* Only the counters are kept, so that the heap does not grow with the
   number of calls made. *)
type mip_run = {
  nodes : int;
  simplex_iters : int;
  mip_refactors : int;
  mip_s : float;
  gap_pct : float;  (* 100 when there is no incumbent or no bound *)
}

type sa_run = { moves : int; accepted : int; sa_s : float }

let mip_runs : mip_run list ref = ref []
let sa_runs : sa_run list ref = ref []

let keep_mip (r : Qp_solver.result) =
  let gap_pct =
    match r.Qp_solver.objective6, r.Qp_solver.bound with
    | Some o, Some b when o <> 0. -> 100. *. (o -. b) /. Float.abs o
    | _ -> 100.
  in
  mip_runs :=
    { nodes = r.Qp_solver.nodes; simplex_iters = r.Qp_solver.simplex_iters;
      mip_refactors = r.Qp_solver.refactorizations; mip_s = r.Qp_solver.elapsed;
      gap_pct }
    :: !mip_runs

let keep_sa (r : Sa_solver.result) =
  let st = r.Sa_solver.search in
  sa_runs :=
    { moves = st.Sa_solver.moves; accepted = st.Sa_solver.accepted_moves;
      sa_s = r.Sa_solver.elapsed }
    :: !sa_runs

let batch_summaries : Batch.summary list ref = ref []

type root_lp = {
  iterations : int;
  refactorizations : int;
  rebuilds : int;  (* drift + recovery rebuilds *)
  refactor_s : float;
  lu_nnz : int;
}

let root_lps : root_lp list ref = ref []
let model_sizes : (int * int * int) list ref = ref []  (* groups, rows, cols *)
let presolve_removed : int list ref = ref []

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let load name = Codec.load_instance (Filename.concat "instances" (name ^ ".json"))

(* A generated catalog instance, at the generator's default seed. *)
let catalog name = Instance_gen.generate (Instance_gen.find name)

let stream_params =
  { Instance_gen.default_params with
    Instance_gen.name = "rnd3x4"; num_tables = 3; num_transactions = 4 }

(* Workload seed -> disjoint generator seed ranges (the set-up warm-up
   uses seeds 0..7). *)
let stream_base () = 100_000 + (!seed * 10_000)
let sa_seed i = 1 + (!seed * 1_000) + i

(* λ = 0.9 is the CLI's and the experiments' weight (DESIGN.md); every
   other solver option keeps its default. *)
let lambda = 0.9

let qp_options sites =
  { Qp_solver.default_options with Qp_solver.num_sites = sites; lambda }

let sa_options sites s =
  { Sa_solver.default_options with
    Sa_solver.num_sites = sites; lambda; seed = s; certify = true }

(* Proven optimal objective (6) per "<instance>@<sites>" label. *)
let reference () =
  let text = In_channel.with_open_bin "perfbench/reference.json" In_channel.input_all in
  match Json.of_string text with
  | Json.Obj fields -> List.map (fun (k, v) -> (k, Json.to_float v)) fields
  | _ -> failwith "perfbench/reference.json: expected an object"

(* ------------------------------------------------------------------ *)
(* Layer probe (traced run only): each layer's public function called   *)
(* on a fixed sample of the workload's own inputs, one span per call.   *)
(* ------------------------------------------------------------------ *)

type probe_input = {
  label : string;
  inst : Instance.t;
  sites : int;
  gen : (Instance_gen.params * int) option;  (* how it was generated *)
}

let probe_nodes = 20

let probe ~qp_solve ~batch inputs =
  Span.on := true;
  List.iteri
    (fun req p ->
       Span.with_ ~req "probe" @@ fun () ->
       let opts = qp_options p.sites in
       let text = Json.to_string ~minify:true (Codec.instance_to_json p.inst) in
       let inst =
         Span.with_ "codec.decode" (fun () ->
             Codec.instance_of_json (Json.of_string text))
       in
       Option.iter
         (fun (params, s) ->
            ignore (Span.with_ "gen.generate" (fun () ->
                Instance_gen.generate ~seed:s params)))
         p.gen;
       let lint = Span.with_ "instance_lint.lint" (fun () -> Instance_lint.lint inst) in
       check (p.label ^ " lint") (not (Diagnostic.has_errors lint));
       let grouping, stats, full_stats =
         Span.with_ "stats.compute" (fun () ->
             let g = Grouping.compute inst in
             ( g,
               Stats.compute g.Grouping.reduced ~p:opts.Qp_solver.p,
               Stats.compute inst ~p:opts.Qp_solver.p ))
       in
       let model, (xv, yv) =
         Span.with_ "qp_solver.build_model" (fun () -> Qp_solver.build_model stats opts)
       in
       let std = Span.with_ "lp.standardize" (fun () -> Lp.standardize model) in
       model_sizes :=
         (Grouping.num_groups grouping, Lp.num_constrs model, Lp.num_vars model)
         :: !model_sizes;
       let pre = Span.with_ "presolve.reduce" (fun () -> Presolve.reduce std) in
       presolve_removed := pre.Presolve.rows_removed :: !presolve_removed;
       let sx =
         Span.with_ "simplex.root" (fun () ->
             let sx = Simplex.create std in
             ignore (Simplex.reoptimize sx);
             sx)
       in
       root_lps :=
         { iterations = Simplex.iterations sx;
           refactorizations = Simplex.refactorizations sx;
           rebuilds = Simplex.drift_rebuilds sx + Simplex.recovery_rebuilds sx;
           refactor_s = Simplex.refactor_seconds sx;
           lu_nnz = Simplex.lu_nnz sx }
         :: !root_lps;
       (* The MIP layer under Qp_solver's branching priority (x before y
          before the rest), node-limited: its outcome is what the
          certification layer is timed on. *)
       let nx = Array.length xv * p.sites and ny = Array.length yv * p.sites in
       let priority v = if v < nx then 2 else if v < nx + ny then 1 else 0 in
       let limits =
         { Mip.default_limits with
           Mip.node_limit = Some probe_nodes; time_limit = Some 20. }
       in
       let outcome, mstats =
         Span.with_ "mip.solve" (fun () -> Mip.solve ~limits ~priority model)
       in
       let sa =
         Span.with_ "sa_solver.solve" (fun () ->
             Sa_solver.solve ~options:(sa_options p.sites 1) inst)
       in
       keep_sa sa;
       let part = sa.Sa_solver.partitioning in
       let tol = Certify.default_options.Certify.tol in
       let float_certs =
         Span.with_ "certify.float" (fun () ->
             Certify.certify_mip ~gap:opts.Qp_solver.gap
               ~var_name:(Lp.var_name model) model outcome mstats
             @ Solution_certify.certify_partitioning full_stats part
             @ Solution_certify.certify_objective6 ~tol inst ~p:opts.Qp_solver.p
               ~lambda:opts.Qp_solver.lambda part ~claimed:sa.Sa_solver.objective6
             @ Solution_certify.certify_cost ~tol inst ~p:opts.Qp_solver.p part
               ~claimed:sa.Sa_solver.cost)
       in
       check (p.label ^ " probe float certificate") (clean (Some float_certs));
       let exact =
         Span.with_ "certify.exact" (fun () ->
             Certify.Exact.merge
               (Certify.Exact.audit ~gap:opts.Qp_solver.gap
                  ~var_name:(Lp.var_name model) model outcome mstats)
               (Solution_certify.Exact.objective6 ~tol inst ~p:opts.Qp_solver.p
                  ~lambda:opts.Qp_solver.lambda part
                  ~claimed:sa.Sa_solver.objective6))
       in
       let _, _, refuted, _ = Certify.Exact.counts exact in
       check (p.label ^ " probe exact audit") (refuted = 0);
       ignore
         (Span.with_ "encode" (fun () ->
              Json.to_string ~minify:true (Codec.partitioning_to_json inst part)));
       if qp_solve then begin
         let r =
           Span.with_ "qp_solver.solve" (fun () -> Qp_solver.solve ~options:opts inst)
         in
         keep_mip r
       end)
    inputs;
  if batch then
    let seq = List.to_seq (List.map (fun p -> (p.label, p.inst)) inputs) in
    let s =
      Span.with_ "batch.run" (fun () ->
          Batch.run ~jobs:1 ~options:(qp_options 2) ~action:Batch.Check ~emit:ignore seq)
    in
    batch_summaries := s :: !batch_summaries;
  Span.on := false

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* What a workload measured, for the end-to-end metrics. *)
type measured = {
  passes : float list;     (* wall seconds of each pass over the fixed work *)
  calls : int;             (* requests completed in the passes *)
  busy : float;            (* wall seconds of the passes *)
  latencies : float list;  (* seconds per request *)
  objectives : float list; (* objective (6) of the returned layouts *)
}

(* The traced run does each unit of work twice: untraced, then traced
   inside a "workload" root span.  Pairing at this grain keeps the host's
   speed drift out of the tracing overhead.  The untraced result and wall
   time are returned. *)
let untraced_s = ref 0.
let traced_s = ref 0.

let paired f =
  let t0 = now () in
  let a = f () in
  let t1 = now () in
  Span.on := true;
  ignore (Span.with_ "workload" f);
  Span.on := false;
  untraced_s := !untraced_s +. (t1 -. t0);
  traced_s := !traced_s +. (now () -. t1);
  (a, t1 -. t0)

(* Work outside the pairs (the budgeted MIP) is traced once. *)
let traced_once f =
  Span.on := true;
  let a = Span.with_ "workload" f in
  Span.on := false;
  a

(* A unit of work and its time: in reference seconds in a measured run,
   the untraced wall time in a traced one. *)
let unit_of_work f = if !traced_run then paired f else Host.scaled f

(* Median over [repeats] samples of the time of one set-up in reference
   seconds, and the last set-up's inputs.  A sample repeats the set-up
   for at least 50 ms, because one set-up can take a millisecond, and
   starts from a fully collected heap. *)
let timed_setup repeats f =
  let sample () =
    Gc.full_major ();
    Host.scaled (fun () ->
        let t0 = now () in
        let rec go k =
          let x = f () in
          if now () -. t0 >= 0.05 then (x, k) else go (k + 1)
        in
        go 1)
  in
  let rec loop n acc last =
    if n = 0 then (median acc, Option.get last)
    else
      let (x, k), dt = sample () in
      loop (n - 1) ((dt /. float_of_int k) :: acc) (Some x)
  in
  loop repeats [] None

let setup_repeats = 21

(* prove-optimal: 14 solves to a certified proof of optimality.  A request
   is one pass over all 14: the solves range from 2 ms to 7 s, and the
   median single solve (about 20 ms) spread 42 % between runs. *)

let schemas = [ "tpcc"; "tatp"; "smallbank"; "voter" ]

let prove_setup () =
  let rnd = List.map (fun n -> (n, catalog n)) [ "rndBt16x100"; "rndAt16x15" ] in
  let named = List.map (fun n -> (n, load n)) schemas in
  (rnd, named)

let prove_solves (rnd, named) =
  List.map (fun (n, inst) -> (n, inst, 2, false)) rnd
  @ List.concat_map
      (fun (n, inst) -> List.map (fun s -> (n, inst, s, true)) [ 2; 3; 4 ])
      named

let prove_one refs ~req name inst sites exact =
  let label = Printf.sprintf "%s@%d" name sites in
  let options =
    { (qp_options sites) with Qp_solver.certify = true; certify_exact = exact }
  in
  let r = Span.with_ ~req "qp_solver.solve" (fun () -> Qp_solver.solve ~options inst) in
  keep_mip r;
  record_work label
    (Printf.sprintf "nodes=%d iterations=%d refactorizations=%d" r.Qp_solver.nodes
       r.Qp_solver.simplex_iters r.Qp_solver.refactorizations);
  let obj = Option.value r.Qp_solver.objective6 ~default:nan in
  let ref_ok =
    match List.assoc_opt label refs with
    | Some v -> Float.abs (obj -. v) <= 1e-3 *. Float.abs v
    | None -> false
  in
  let exact_ok =
    (not exact)
    || (match r.Qp_solver.exact with
        | Some rep ->
          let _, _, refuted, _ = Certify.Exact.counts rep in
          refuted = 0
        | None -> false)
  in
  let optimal = r.Qp_solver.outcome = Qp_solver.Proved_optimal in
  check
    (Printf.sprintf "%s: %s, objective6 %.9g" label
       (if optimal then "optimal" else "limit hit") obj)
    (optimal && ref_ok && clean r.Qp_solver.certificate && exact_ok);
  obj

let prove_optimal () =
  let refs = reference () in
  let setup_s, inputs = timed_setup setup_repeats prove_setup in
  let solves = prove_solves inputs in
  let one_pass () =
    let timed =
      List.mapi
        (fun req (name, inst, sites, exact) ->
           unit_of_work (fun () -> prove_one refs ~req name inst sites exact))
        solves
    in
    (sum (List.map snd timed), List.map fst timed)
  in
  let passes =
    if !traced_run then [ one_pass () ]
    else
      (* A fixed number of passes, one per 10 s of window and at least 2,
         so that the host's speed does not change what is measured. *)
      List.init (max 2 (!seconds / 10)) (fun _ -> one_pass ())
  in
  if !traced_run then begin
    let probe_inputs =
      List.map (fun (n, inst) -> { label = n; inst; sites = 2; gen = None }) (snd inputs)
      @ List.map
          (fun (n, inst) ->
             { label = n; inst; sites = 2; gen = Some (Instance_gen.find n, 42) })
          (fst inputs)
    in
    probe ~qp_solve:false ~batch:true probe_inputs
  end;
  ( setup_s,
    { passes = List.map fst passes;
      calls = sumi (fun (_, l) -> List.length l) passes;
      busy = sum (List.map fst passes);
      latencies = List.map fst passes;
      objectives = snd (List.hd passes) } )

(* paper-scale: rndBt64x100 at 2 sites, SA over a seed list and one MIP
   solve under a fixed wall budget. *)

let paper_scale () =
  let setup_s, inst = timed_setup setup_repeats (fun () -> load "rndBt64x100") in
  let n_seeds = 2 * !seconds in
  let budget = float_of_int !seconds /. 3. in
  (* Each seed runs twice back to back: the repeat is the determinism
     check, and the faster of the two is the seed's latency, so a single
     host stall does not set the tail. *)
  let sa_once s =
    let r =
      Span.with_ ~req:s "sa_solver.solve" (fun () -> Sa_solver.solve ~options:(sa_options 2 s) inst)
    in
    keep_sa r;
    let st = r.Sa_solver.search in
    record_work (Printf.sprintf "sa seed %d" s)
      (Printf.sprintf "moves=%d accepted=%d epochs=%d" st.Sa_solver.moves
         st.Sa_solver.accepted_moves st.Sa_solver.epochs);
    check (Printf.sprintf "SA seed %d certificate" s) (clean r.Sa_solver.certificate);
    r.Sa_solver.objective6
  in
  let sa_list seeds () =
    let out =
      List.map
        (fun s ->
           let obj, d1 = unit_of_work (fun () -> sa_once s) in
           let _, d2 = unit_of_work (fun () -> sa_once s) in
           (d1 +. d2, (Float.min d1 d2, obj)))
        seeds
    in
    (sum (List.map fst out), List.map snd out)
  in
  let budgeted_qp () =
    let options =
      { (qp_options 2) with Qp_solver.certify = true; time_limit = budget }
    in
    let r = Span.with_ ~req:0 "qp_solver.solve" (fun () -> Qp_solver.solve ~options inst) in
    keep_mip r;
    check "paper-scale MIP incumbent certificate"
      (r.Qp_solver.partitioning <> None && clean r.Qp_solver.certificate)
  in
  let passes =
    if !traced_run then begin
      let r = sa_list (List.init (n_seeds / 2) sa_seed) () in
      traced_once budgeted_qp;
      [ r ]
    end
    else begin
      let r = sa_list (List.init n_seeds sa_seed) () in
      budgeted_qp ();
      [ r ]
    end
  in
  if !traced_run then
    probe ~qp_solve:false ~batch:true
      [ { label = "rndBt64x100"; inst; sites = 2;
          gen = Some (Instance_gen.find "rndBt64x100", 42) } ];
  ( setup_s,
    { passes = List.map fst passes;
      calls = 2 * sumi (fun (_, l) -> List.length l) passes;
      busy = sum (List.map fst passes);
      latencies = List.concat_map (fun (_, l) -> List.map fst l) passes;
      objectives = List.concat_map (fun (_, l) -> List.map snd l) passes } )

(* stream: Batch.run with the certify action over generated 3-table x
   4-transaction instances. *)

let rec traced_gen i (s : 'a Seq.t) : 'a Seq.t =
 fun () ->
  match Span.with_ ~req:i "gen.generate" s with
  | Seq.Nil -> Seq.Nil
  | Seq.Cons (x, rest) -> Seq.Cons (x, traced_gen (i + 1) rest)

let batch_certify ~emit seq =
  Batch.run ~jobs:1 ~options:(qp_options 2) ~action:Batch.Certify ~emit seq

let stream () =
  (* Set-up is the service's warm-up: one window of requests. *)
  let setup_s, () =
    timed_setup setup_repeats (fun () ->
        let s =
          batch_certify ~emit:ignore (Instance_gen.stream ~seed:0 ~count:8 stream_params)
        in
        if s.Batch.failures > 0 then failwith "stream warm-up failed")
  in
  let count = 100 * !seconds in
  (* Requests [first, first + n) of the workload's stream. *)
  let run ~first n () =
    let lat = ref [] and objs = ref [] in
    let emit r =
      let req = first + r.Batch.index in
      ignore
        (Sys.opaque_identity
           (Span.with_ ~req "encode" (fun () ->
                Json.to_string ~minify:true (Batch.response_to_json r))));
      check (Printf.sprintf "stream request %d (%s)" req r.Batch.outcome) r.Batch.ok;
      lat := r.Batch.seconds :: !lat;
      Option.iter (fun o -> objs := o :: !objs) r.Batch.objective6
    in
    let seq =
      traced_gen first (Instance_gen.stream ~seed:(stream_base () + first) ~count:n stream_params)
    in
    let s = Span.with_ "batch.run" (fun () -> batch_certify ~emit seq) in
    if !Span.on then batch_summaries := s :: !batch_summaries;
    (List.rev !lat, List.rev !objs)
  in
  let results =
    if !traced_run then
      (* Half the requests, in paired chunks of 100. *)
      List.init (count / 200) (fun k -> paired (run ~first:(100 * k) 100))
    else
      (* Chunks of 50 requests, each scaled to the reference host as one
         unit: a single request is too short to calibrate alone. *)
      List.init (count / 50) (fun k ->
          let (lat, objs), dt, f = Host.timed (run ~first:(50 * k) 50) in
          ((List.map (fun l -> l *. f) lat, objs), dt *. f))
  in
  let wall = sum (List.map snd results) in
  if !traced_run then
    probe ~qp_solve:true ~batch:false
      (List.of_seq
         (Seq.mapi
            (fun i (label, inst) ->
               { label; inst; sites = 2; gen = Some (stream_params, stream_base () + i) })
            (Instance_gen.stream ~seed:(stream_base ()) ~count:16 stream_params)));
  ( setup_s,
    { passes = [ wall ];
      calls = sumi (fun ((l, _), _) -> List.length l) results;
      busy = wall;
      latencies = List.concat_map (fun ((l, _), _) -> l) results;
      objectives = List.concat_map (fun ((_, o), _) -> o) results } )

(* ------------------------------------------------------------------ *)
(* Metrics and output                                                  *)
(* ------------------------------------------------------------------ *)

let peak_rss_mb () =
  let from_status () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line ->
            (match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf (String.trim v) "%d" (fun kb -> Some (float_of_int kb /. 1024.))
             | _ -> scan ())
        in
        scan ())
  in
  let from_heap () =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  match from_status () with
  | Some mb -> mb
  | None -> from_heap ()
  | exception Sys_error _ -> from_heap ()

let end_to_end setup_s m =
  [ ("setup_s", setup_s, "s", setup_repeats);
    ("solve_s", median m.passes, "s", List.length m.passes);
    ("throughput_rps", ratio (float_of_int m.calls) m.busy, "1/s", m.calls);
    ("latency_p50_ms", 1000. *. median m.latencies, "ms", List.length m.latencies);
    ("latency_p99_ms", 1000. *. percentile 0.99 m.latencies, "ms", List.length m.latencies);
    ("objective6", median m.objectives, "cost", List.length m.objectives);
    ("peak_rss_mb", peak_rss_mb () -. Host.buffers_mb, "MB", 1) ]

let per_layer () =
  let fsum f l = sum (List.map f l) in
  let mean f l = ratio (fsum f l) (float_of_int (List.length l)) in
  let n l = List.length l in
  let mips = !mip_runs and sas = !sa_runs and lps = !root_lps in
  let nodes = fsum (fun r -> float_of_int r.nodes) mips in
  let mip_s = fsum (fun r -> r.mip_s) mips in
  let moves = fsum (fun r -> float_of_int r.moves) sas in
  let bs = !batch_summaries in
  let reqs = fsum (fun s -> float_of_int s.Batch.requests) bs in
  let spans = List.length !Span.recorded in
  [ ("codec.decode_ms", Span.mean_ms "codec.decode", "ms", n (Span.named "codec.decode"));
    ("gen.generate_ms", Span.mean_ms "gen.generate", "ms", n (Span.named "gen.generate"));
    ("lint.ms", Span.mean_ms "instance_lint.lint", "ms", n (Span.named "instance_lint.lint"));
    ("stats.compute_ms", Span.mean_ms "stats.compute", "ms", n (Span.named "stats.compute"));
    ("grouping.groups", mean (fun (g, _, _) -> float_of_int g) !model_sizes, "count", n !model_sizes);
    ("model.build_ms", Span.mean_ms "qp_solver.build_model", "ms", n !model_sizes);
    ("model.rows", mean (fun (_, r, _) -> float_of_int r) !model_sizes, "count", n !model_sizes);
    ("model.cols", mean (fun (_, _, c) -> float_of_int c) !model_sizes, "count", n !model_sizes);
    ("presolve.ms", Span.mean_ms "presolve.reduce", "ms", n !presolve_removed);
    ("presolve.rows_removed", mean float_of_int !presolve_removed, "count", n !presolve_removed);
    ("simplex.root_s", Span.mean_ms "simplex.root" /. 1000., "s", n lps);
    ("simplex.root_iterations", mean (fun l -> float_of_int l.iterations) lps, "count", n lps);
    ("simplex.refactorizations", mean (fun l -> float_of_int l.refactorizations) lps, "count", n lps);
    ("simplex.refactor_s", mean (fun l -> l.refactor_s) lps, "s", n lps);
    ("simplex.lu_nnz", mean (fun l -> float_of_int l.lu_nnz) lps, "count", n lps);
    ("simplex.rebuild_ratio",
     ratio (fsum (fun l -> float_of_int l.rebuilds) lps)
       (fsum (fun l -> float_of_int l.refactorizations) lps), "ratio", n lps);
    ("mip.nodes", nodes, "count", n mips);
    ("mip.iterations_per_node",
     ratio (fsum (fun r -> float_of_int r.simplex_iters) mips) nodes, "count", n mips);
    ("mip.refactorizations", fsum (fun r -> float_of_int r.mip_refactors) mips,
     "count", n mips);
    ("mip.node_ms", 1000. *. ratio mip_s nodes, "ms", n mips);
    ("mip.nodes_per_s", ratio nodes mip_s, "1/s", n mips);
    ("mip.gap_pct", List.fold_left (fun g r -> Float.max g r.gap_pct) 0. mips, "%", n mips);
    ("certify.float_ms", Span.mean_ms "certify.float", "ms", n (Span.named "certify.float"));
    ("certify.exact_ms", Span.mean_ms "certify.exact", "ms", n (Span.named "certify.exact"));
    ("sa.moves", ratio moves (float_of_int (n sas)), "count", n sas);
    ("sa.moves_per_s", ratio moves (fsum (fun r -> r.sa_s) sas), "1/s", n sas);
    ("sa.accept_ratio", ratio (fsum (fun r -> float_of_int r.accepted) sas) moves,
     "ratio", n sas);
    ("batch.minor_words_per_req", ratio (fsum (fun s -> s.Batch.minor_words) bs) reqs, "words",
     int_of_float reqs);
    ("batch.major_words_per_req", ratio (fsum (fun s -> s.Batch.major_words) bs) reqs, "words",
     int_of_float reqs);
    ("batch.top_heap_mb",
     List.fold_left (fun acc s -> Float.max acc
                        (float_of_int (s.Batch.top_heap_words * (Sys.word_size / 8)) /. 1048576.))
       0. bs, "MB", n bs);
    ("batch.compactions", fsum (fun s -> float_of_int s.Batch.compactions) bs, "count", n bs);
    ("encode.ms", Span.mean_ms "encode", "ms", n (Span.named "encode"));
    ("obs.trace_overhead_pct", 100. *. ratio (!traced_s -. !untraced_s) !untraced_s, "%",
     n (Span.named "workload"));
    ("obs.span_coverage_pct", Span.coverage_pct "workload", "%", spans) ]

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let provenance () =
  Printf.sprintf
    "{\"provenance\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \
     \"trace\": %b, \"nproc\": %d, \"ocaml\": %S, \"git_rev\": %S, \"jobs\": 1}}"
    !workload !seed !seconds !traced_run (Domain.recommended_domain_count ())
    Sys.ocaml_version !git_rev

let () =
  let run =
    match !workload with
    | "prove-optimal" -> prove_optimal
    | "paper-scale" -> paper_scale
    | "stream" -> stream
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error _ -> ());
  load_work ();
  let setup_s, m = run () in
  save_work ();
  let metrics = if !traced_run then per_layer () else end_to_end setup_s m in
  let coverage = Span.coverage_pct "workload" in
  if !traced_run && coverage < 90. then
    Printf.eprintf "perfbench: spans cover only %.1f %% of the traced wall time\n" coverage;
  if !traced_run then
    Span.write
      (Filename.concat out_dir
         (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed))
      ~header:(provenance ());
  print_endline (provenance ());
  (* The host's speed over the run: the timed work's raw wall seconds, the
     same in reference seconds, and the kernel's time here and there. *)
  Printf.printf
    "{\"host\": {\"raw_s\": %.4f, \"reference_s\": %.4f, \"kernel_ms_p50\": %.4f, \
     \"reference_kernel_ms\": %.4f, \"kernel_runs\": %d}}\n"
    !Host.raw_total !Host.scaled_total (1000. *. median !Host.kernel_runs)
    (1000. *. Host.reference_s) (List.length !Host.kernel_runs);
  Printf.printf "{\"samples\": {%s}}\n"
    (String.concat ", "
       (List.map (fun (name, _, _, k) -> Printf.sprintf "%S: %d" name k) metrics));
  let nonfinite = List.exists (fun (_, v, _, _) -> not (Float.is_finite v)) metrics in
  if nonfinite then prerr_endline "perfbench: a metric is not finite";
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0 && !work_mismatches = 0 && not nonfinite)
    !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit, _) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
          metrics))
