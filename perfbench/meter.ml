(* Measurement plumbing shared by the three workloads: wall-clock
   timing, order statistics, peak memory, the host-speed probe, and the
   benchmark's own in-memory span recorder.

   The library emits its own spans into Obs's bounded ring, which a
   long run overflows many times over; the benchmark therefore keeps
   the spans it opens around each public layer call in its own list
   (exact durations, so p99s are exact) and renders them at the end as
   Obs span events, the JSONL format `imtp report FILE` reads. *)

module Obs = Imtp.Obs

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile (type 7) of an unsorted sample; nan when
   empty. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = truncate h in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> Float.nan
  | xs -> exp (mean (List.map log xs))

(* Peak resident set of this process (VmHWM), in MiB; falls back to the
   OCaml heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception _) ->
      let words = (Gc.quick_stat ()).Gc.top_heap_words in
      float (words * (Sys.word_size / 8)) /. 1048576.

(* --- host speed ------------------------------------------------------ *)

(* A shared host's speed drifts by tens of percent over minutes with its
   neighbours' load, and every wall time drifts with it.  The probe is a
   fixed computation that uses no repository code (integer arithmetic,
   array traffic and allocation, the compiler's own mix), timed at most
   every [probe_every_s] through a run.  [host_factor] is the run's
   median probe time over [reference_probe_s], the probe's time on the
   host this benchmark was defined on; a wall time divided by it is the
   time the run would have taken there. *)
let reference_probe_s = 0.0030
let probe_every_s = 0.5

let probe_s () =
  snd
    (timed (fun () ->
         let a = Array.make 4096 0 in
         let x = ref 1 in
         let kept = ref [] in
         for i = 1 to 100_000 do
           x := ((!x * 1103515245) + 12345) land 0x3fffffff;
           let j = !x land 4095 in
           a.(j) <- a.(j) + i;
           if i land 7 = 0 then kept := !x :: !kept
         done;
         ignore (List.sort compare !kept)))

type host = { mutable probes : float list; mutable last : float }

let host () = { probes = []; last = Float.neg_infinity }

let maybe_probe h =
  if now () -. h.last >= probe_every_s then begin
    h.probes <- probe_s () :: h.probes;
    h.last <- now ()
  end

let host_factor h = median h.probes /. reference_probe_s

(* --- spans ----------------------------------------------------------- *)

type tracer = {
  enabled : bool;
  mutable spans : Obs.span list;  (** finished, newest first. *)
  mutable next_id : int;
  mutable open_ids : int list;
}

let tracer enabled = { enabled; spans = []; next_id = 0; open_ids = [] }
let off = tracer false

(* [span tr name f] times [f ()] when [tr] is enabled; otherwise it is
   exactly [f ()]. *)
let span tr name f =
  if not tr.enabled then f ()
  else begin
    let id = tr.next_id in
    tr.next_id <- id + 1;
    let parent = match tr.open_ids with p :: _ -> Some p | [] -> None in
    tr.open_ids <- id :: tr.open_ids;
    let start_s = Obs.now_s () in
    let finish () =
      let dur_s = Obs.now_s () -. start_s in
      tr.open_ids <- List.tl tr.open_ids;
      let s = { Obs.id; parent; name; start_s; dur_s; attrs = [] } in
      tr.spans <- s :: tr.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let durations tr names =
  List.filter_map
    (fun (s : Obs.span) ->
      if List.mem s.Obs.name names then Some s.Obs.dur_s else None)
    tr.spans

let write_trace tr path =
  let events = List.rev_map (fun s -> Obs.Span s) tr.spans in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Obs.to_jsonl events))

(* --- per-layer counts ------------------------------------------------ *)

(* Named sums accumulated over the traced items (counts, fractions'
   numerators and denominators, per-item seconds). *)
type tally = (string, float) Hashtbl.t

let tally () : tally = Hashtbl.create 32

let add (t : tally) name v =
  let v0 = Option.value ~default:0. (Hashtbl.find_opt t name) in
  Hashtbl.replace t name (v0 +. v)

let get (t : tally) name = Option.value ~default:0. (Hashtbl.find_opt t name)
