module Sketch = Imtp_engine.Sketch
module Op = Imtp_workload.Op

let dim = 11

type t = {
  xtx : float array array;  (* dim x dim *)
  xty : float array;
  mutable n : int;
  mutable weights : float array option;  (* cache, invalidated on observe *)
}

let create () =
  {
    xtx = Array.make_matrix dim dim 0.;
    xty = Array.make dim 0.;
    n = 0;
    weights = None;
  }

let copy t =
  {
    xtx = Array.map Array.copy t.xtx;
    xty = Array.copy t.xty;
    n = t.n;
    weights = Option.map Array.copy t.weights;
  }

let log2 x = log (float_of_int (max 1 x)) /. log 2.

let features op (p : Sketch.params) =
  let work = Op.total_flops op in
  let dpus = p.Sketch.spatial_dpus * p.Sketch.reduction_dpus in
  [|
    1.;
    log2 p.Sketch.spatial_dpus;
    log2 p.Sketch.reduction_dpus;
    log2 p.Sketch.tasklets;
    log2 p.Sketch.cache_elems;
    log2 p.Sketch.rows_per_tasklet;
    (if p.Sketch.unroll_inner then 1. else 0.);
    log2 p.Sketch.host_threads;
    (if Sketch.uses_rfactor p then 1. else 0.);
    log (1. +. (work /. float_of_int (max 1 dpus))) /. log 2.;
    log2 (p.Sketch.tasklets * p.Sketch.cache_elems);
  |]

let observe t x y =
  let y = log (max 1e-9 y) in
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      t.xtx.(i).(j) <- t.xtx.(i).(j) +. (x.(i) *. x.(j))
    done;
    t.xty.(i) <- t.xty.(i) +. (x.(i) *. y)
  done;
  t.n <- t.n + 1;
  t.weights <- None

let solve t =
  (* (XtX + λI) w = Xty by Gaussian elimination with partial pivoting. *)
  let lambda = 1e-2 in
  let a = Array.init dim (fun i -> Array.copy t.xtx.(i)) in
  let b = Array.copy t.xty in
  for i = 0 to dim - 1 do
    a.(i).(i) <- a.(i).(i) +. lambda
  done;
  for col = 0 to dim - 1 do
    let pivot = ref col in
    for r = col + 1 to dim - 1 do
      if Float.abs a.(r).(col) > Float.abs a.(!pivot).(col) then pivot := r
    done;
    let tmp = a.(col) in
    a.(col) <- a.(!pivot);
    a.(!pivot) <- tmp;
    let tb = b.(col) in
    b.(col) <- b.(!pivot);
    b.(!pivot) <- tb;
    let d = a.(col).(col) in
    if Float.abs d > 1e-12 then
      for r = 0 to dim - 1 do
        if r <> col then begin
          let f = a.(r).(col) /. d in
          for c = 0 to dim - 1 do
            a.(r).(c) <- a.(r).(c) -. (f *. a.(col).(c))
          done;
          b.(r) <- b.(r) -. (f *. b.(col))
        end
      done
  done;
  Array.init dim (fun i ->
      if Float.abs a.(i).(i) > 1e-12 then b.(i) /. a.(i).(i) else 0.)

let trained t = t.n >= 8
let sample_count t = t.n

let predict t x =
  if not (trained t) then 0.
  else begin
    let w =
      match t.weights with
      | Some w -> w
      | None ->
          let w = solve t in
          t.weights <- Some w;
          w
    in
    let acc = ref 0. in
    for i = 0 to dim - 1 do
      acc := !acc +. (w.(i) *. x.(i))
    done;
    !acc
  end
