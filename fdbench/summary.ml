(* Order statistics and fits over the benchmark's samples. *)

let sorted xs = List.sort Float.compare xs

(* Median; 0 for no samples. *)
let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> 0.0
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least [beyond] samples above it: the
   ([beyond]+1)-th largest sample, with the percentile it stands at.
   With too few samples it is the maximum, at the 100th percentile. *)
let tail ?(beyond = 10) xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (0.0, 0.0)
  else if n <= beyond then (a.(n - 1), 100.0)
  else (a.(n - 1 - beyond), 100.0 *. float_of_int (n - beyond) /. float_of_int n)

let geomean = function
  | [] -> 0.0
  | xs ->
    exp (List.fold_left (fun s x -> s +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Least-squares slope of log t against log P: the scaling exponent of a
   time over a P ladder.  Points with t <= 0 carry no information and
   are dropped; [None] when fewer than two distinct P remain. *)
let log_log_slope points =
  let pts =
    List.filter_map
      (fun (p, t) -> if t > 0.0 then Some (log p, log t) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  let mx = List.fold_left (fun s (x, _) -> s +. x) 0.0 pts /. n in
  let my = List.fold_left (fun s (_, y) -> s +. y) 0.0 pts /. n in
  let sxx = List.fold_left (fun s (x, _) -> s +. ((x -. mx) ** 2.0)) 0.0 pts in
  let sxy =
    List.fold_left (fun s (x, y) -> s +. ((x -. mx) *. (y -. my))) 0.0 pts
  in
  if List.length pts < 2 || sxx = 0.0 then None else Some (sxy /. sxx)

let valid_metric_name name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name
