(* The benchmark's workloads: for each, a fixed pool of jobs (program,
   size, P, strategy, kind) and a seeded job list that walks the pool in
   rounds, each round in a fresh seeded order.

   The pool does not depend on the seed, so every run of a workload
   covers the same programs and its virtual (simulated or predicted)
   totals are identical on every seed; the seed decides the order in
   which the jobs reach the tool.  Random programs come from
   [Fd_workloads.Gen] under fixed generator seeds, as part of the pool. *)

open Fd_core

type kind =
  | Run  (** [fdc run]: compile, simulate, compare with the sequential run *)
  | Analyze  (** [fdc check] + [fdc cost]: compile, lint, verify, predict *)

type spec = {
  program : string;  (** generator name, e.g. ["dgefa"], ["gen7"] *)
  size : int option;  (** problem size n; [None] = the generator default *)
  nprocs : int;
  strategy : Options.strategy;
  kind : kind;
}

(* One program of the pool across its P ladder: the unit over which
   layer-time exponents are fitted. *)
let program_key s =
  Printf.sprintf "%s/n=%s/%s" s.program
    (match s.size with Some n -> string_of_int n | None -> "default")
    (Options.strategy_name s.strategy)

let key s = Printf.sprintf "%s/P=%d" (program_key s) s.nprocs

let gen_seed prefix name =
  let l = String.length prefix in
  if String.length name > l && String.sub name 0 l = prefix then
    int_of_string_opt (String.sub name l (String.length name - l))
  else None

(* The Fortran D source of a job: the only input the tool receives. *)
let source (s : spec) : string =
  let n = s.size in
  match s.program with
  | "dgefa" -> Fd_workloads.Dgefa.source ?n ()
  | "jacobi1d" -> Fd_workloads.Stencil.jacobi1d ?n ()
  | "jacobi2d" -> Fd_workloads.Stencil.jacobi2d ?n ()
  | "redblack" -> Fd_workloads.Stencil.redblack ?n ()
  | "multi_array" -> Fd_workloads.Stencil.multi_array ?n ()
  | "adi_dynamic" -> Fd_workloads.Adi.dynamic ?n ()
  | "adi_static" -> Fd_workloads.Adi.static_ ?n ()
  | "fig1" -> Fd_workloads.Figures.fig1 ?n ()
  | "fig4" -> Fd_workloads.Figures.fig4 ?n ()
  | "fig15" -> Fd_workloads.Figures.fig15 ?n ()
  | name -> (
    match (gen_seed "gen2d" name, gen_seed "gen" name) with
    | Some k, _ -> Fd_workloads.Gen.random_source2d (Random.State.make [| k |])
    | None, Some k -> Fd_workloads.Gen.random_source (Random.State.make [| k |])
    | None, None -> invalid_arg ("unknown program " ^ name))

let ladder ~kind ~strategy ?size program ps =
  List.map (fun nprocs -> { program; size; nprocs; strategy; kind }) ps

let interproc = Options.Interproc
let immediate = Options.Immediate
let runtime = Options.Runtime_resolution

(* Why each workload exists is recorded in fdbench/NOTES.md. *)
let names = [ "sim_lowp"; "sim_highp"; "analyze_highp" ]

(* A run is k whole rounds of the pool, so its median falls on the
   middle job of the pool and its tail (the 11th sample from the top) on
   the ceil(11/k)-th slowest.  The pools have an odd size, and sizes and
   ladders are chosen so that, at the k of [rounds_per_run], both fall
   inside a group of jobs of similar cost, away from its edges; some of
   the cheap Gen jobs are there to place the median (fdbench/NOTES.md). *)
let pool = function
  | "sim_lowp" ->
    let all3 program size =
      List.concat_map
        (fun strategy -> ladder ~kind:Run ~strategy ~size program [ 4; 16 ])
        [ interproc; immediate; runtime ]
    in
    all3 "dgefa" 48 @ all3 "jacobi2d" 48 @ all3 "adi_static" 48 @ all3 "fig4" 48
    @ all3 "jacobi1d" 64 @ all3 "redblack" 64 @ all3 "fig15" 64
    @ List.concat_map
        (fun g -> ladder ~kind:Run ~strategy:interproc g [ 4; 8; 16 ])
        [ "gen3"; "gen2d5"; "gen11"; "gen1"; "gen2"; "gen5"; "gen10" ]
  | "sim_highp" ->
    let p = [ 256; 512; 1024 ] in
    ladder ~kind:Run ~strategy:interproc ~size:8 "dgefa" p
    @ List.concat_map
        (fun g -> ladder ~kind:Run ~strategy:interproc g p)
        [ "jacobi2d"; "fig15"; "adi_dynamic"; "gen2d5" ]
  | "analyze_highp" ->
    (* P = 4096 for the stencils, redblack, fig15, dgefa and fig4
       immediate only, so that a run holds seven rounds *)
    let p = [ 64; 256; 1024; 4096 ] and p3 = [ 64; 256; 1024 ] in
    List.concat_map
      (fun g -> ladder ~kind:Analyze ~strategy:interproc g p)
      [ "jacobi1d"; "jacobi2d"; "redblack"; "fig15" ]
    @ List.concat_map
        (fun g -> ladder ~kind:Analyze ~strategy:interproc g p3)
        [ "fig4"; "multi_array"; "gen3"; "gen2d5"; "gen11"; "gen12" ]
    @ ladder ~kind:Analyze ~strategy:interproc ~size:8 "dgefa" p
    @ ladder ~kind:Analyze ~strategy:immediate ~size:48 "fig4" p
    @ ladder ~kind:Analyze ~strategy:immediate "fig1" p3
    @ ladder ~kind:Analyze ~strategy:runtime ~size:8 "dgefa" [ 4; 16 ]
    @ ladder ~kind:Analyze ~strategy:runtime ~size:64 "jacobi1d" [ 4; 16 ]
    @ ladder ~kind:Analyze ~strategy:runtime ~size:48 "fig4" [ 4; 16 ]
  | name -> invalid_arg ("unknown workload " ^ name)

(* Rounds in a run of the benchmark's 18 s: the k that puts the median
   and the tail among jobs of similar cost (fdbench/NOTES.md).  A round
   takes 2.5 to 3.6 calibrated seconds at the commit that defined the
   benchmark. *)
let rounds_per_18s = function
  | "sim_lowp" -> 5
  | "sim_highp" -> 7
  | "analyze_highp" -> 7
  | name -> invalid_arg ("unknown workload " ^ name)

(* The rounds of a run of [seconds]: fixed by the workload and [seconds]
   alone, so that the tail's rank in the pool does not move with the
   speed of the program measured. *)
let rounds_per_run name ~seconds =
  max 1 (Float.to_int (Float.round (seconds /. 18.0 *. float_of_int (rounds_per_18s name))))

(* Each program's job at its smallest P: the warm-up set, and the jobs
   checked against the shipped entry points. *)
let smallest pool =
  List.filter
    (fun s ->
      List.for_all
        (fun t -> program_key t <> program_key s || t.nprocs > s.nprocs || t == s)
        pool)
    pool

(* Fisher-Yates over the pool, drawing from the run's seeded state. *)
let shuffle st pool =
  let a = Array.of_list pool in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The job list's rounds: [rounds ~seed pool] returns a generator whose
   k-th call yields round k.  The same seed yields the same rounds. *)
let rounds ~seed pool =
  let st = Random.State.make [| 0x5eed; seed |] in
  fun () -> shuffle st pool
