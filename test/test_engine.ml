(* Engine tests: canonical structural hashing, the content-addressed
   memo table, batched measurement, and the typed error taxonomy. *)

module E = Imtp_engine.Engine
module Sk = Imtp_engine.Sketch
module V = Imtp_engine.Verifier
module Rng = Imtp_engine.Rng
module Pl = Imtp_passes.Pipeline
module Ops = Imtp_workload.Ops
module U = Imtp_upmem

let cfg = U.Config.default

let small_params =
  { Sk.default_params with Sk.spatial_dpus = 16; tasklets = 4; cache_elems = 16 }

(* --- canonical structural hashing --------------------------------- *)

let test_fingerprint_stable () =
  let op = Ops.mtv 64 128 in
  let a = E.fingerprint op small_params in
  let b = E.fingerprint op small_params in
  Alcotest.(check string) "same inputs, same key" a b;
  (* a structurally-equal but separately-constructed op hashes the same *)
  let c = E.fingerprint (Ops.mtv 64 128) small_params in
  Alcotest.(check string) "fresh op value, same key" a c;
  (* the key does not depend on which engine instance computes builds *)
  let e1 = E.create cfg and e2 = E.create cfg in
  match (E.build e1 op small_params, E.build e2 op small_params) with
  | Ok x, Ok y ->
      Alcotest.(check string) "same key across engines" x.E.key y.E.key;
      Alcotest.(check string) "build key is the fingerprint" a x.E.key
  | _ -> Alcotest.fail "build failed"

let test_fingerprint_distinguishes () =
  let op = Ops.mtv 64 128 in
  let base = E.fingerprint op small_params in
  let check_distinct label key =
    Alcotest.(check bool) label true (key <> base)
  in
  check_distinct "pass config in key" (E.fingerprint ~passes:Pl.all_off op small_params);
  check_distinct "dma-only config in key"
    (E.fingerprint ~passes:{ Pl.all_off with Pl.dma_elim = true } op small_params);
  check_distinct "skip_inputs in key" (E.fingerprint ~skip_inputs:[ "A" ] op small_params);
  check_distinct "verify toggle in key" (E.fingerprint ~verify:false op small_params);
  check_distinct "params in key"
    (E.fingerprint op { small_params with Sk.tasklets = 8 });
  check_distinct "op shape in key" (E.fingerprint (Ops.mtv 64 256) small_params);
  (* skip_inputs are order-canonicalized, so permutations share a key *)
  Alcotest.(check string) "skip_inputs order irrelevant"
    (E.fingerprint ~skip_inputs:[ "A"; "B" ] op small_params)
    (E.fingerprint ~skip_inputs:[ "B"; "A" ] op small_params)

(* --- the memo table ------------------------------------------------ *)

let test_cache_hit_identical_stats () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let m1 = Result.get_ok (E.measure e op small_params) in
  let m2 = Result.get_ok (E.measure e op small_params) in
  Alcotest.(check bool) "first build is a miss" false m1.E.from_cache;
  Alcotest.(check bool) "second build is a hit" true m2.E.from_cache;
  (* bit-identical artifact: the cache returns the same value, it does
     not recompute. *)
  Alcotest.(check bool) "stats bit-identical" true
    (m1.E.artifact.E.stats = m2.E.artifact.E.stats);
  Alcotest.(check bool) "program identical" true
    (m1.E.artifact.E.program = m2.E.artifact.E.program);
  let c = E.counters e in
  Alcotest.(check int) "one hit" 1 c.E.hits;
  Alcotest.(check int) "one artifact built" 1 c.E.built

let test_errors_cached () =
  (* 512-element caches x 3 buffers x 24 tasklets = 144 KB > 64 KB WRAM. *)
  let p =
    { Sk.default_params with Sk.spatial_dpus = 4; tasklets = 24; cache_elems = 512 }
  in
  let op = Ops.va 1_000_000 in
  let e = E.create cfg in
  (match E.build e op p with
  | Error (E.Verifier_rejected r) ->
      Alcotest.(check string) "typed wram rejection" "wram" r.V.constraint_name
  | Error err -> Alcotest.failf "wrong error: %s" (E.error_to_string err)
  | Ok _ -> Alcotest.fail "WRAM overflow accepted");
  (* the rejection is cached: re-proposing costs a lookup, not a build *)
  let before = E.counters e in
  (match E.build e op p with
  | Error (E.Verifier_rejected _) -> ()
  | _ -> Alcotest.fail "cached outcome differs");
  let after = E.counters e in
  Alcotest.(check int) "second probe hits" (before.E.hits + 1) after.E.hits;
  Alcotest.(check int) "no new failure built" before.E.failed after.E.failed

let test_find_is_pure () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  Alcotest.(check bool) "empty cache" true (E.find e op small_params = None);
  let c0 = E.counters e in
  Alcotest.(check int) "find counts no lookups" 0 c0.E.lookups;
  ignore (E.build e op small_params);
  match E.find e op small_params with
  | Some (Ok a) ->
      Alcotest.(check string) "found under fingerprint"
        (E.fingerprint op small_params) a.E.key
  | _ -> Alcotest.fail "built artifact not findable"

(* One entry per candidate: a prepared candidate is finished in place
   whichever entry point then asks for its artifact, never lowered or
   costed a second time. *)
let test_prepare_then_build_lowers_once () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let prep = Result.get_ok (E.prepare e op small_params) in
  let lower_s = (E.counters e).E.lower_s in
  let a = Result.get_ok (E.build e op small_params) in
  Alcotest.(check bool) "artifact keeps the prepared program" true
    (a.E.program = prep.E.pprogram);
  Alcotest.(check bool) "measure hits" true
    (Result.get_ok (E.measure e op small_params)).E.from_cache;
  (match E.batch e ~jobs:1 op [ small_params ] with
  | [ (_, Ok m) ] -> Alcotest.(check bool) "batch hits" true m.E.from_cache
  | _ -> Alcotest.fail "batch lost the candidate");
  let c = E.counters e in
  Alcotest.(check int) "built once" 1 c.E.built;
  Alcotest.(check int) "costed once" 1 c.E.costed;
  Alcotest.(check (float 0.)) "lowered once" lower_s c.E.lower_s;
  let m = Result.get_ok (E.simulate e prep) in
  Alcotest.(check bool) "simulate after build hits" true m.E.from_cache;
  Alcotest.(check int) "simulate costs nothing more" 1 (E.counters e).E.costed

let test_error_to_string_prefixes () =
  Alcotest.(check string) "lower" "lower: boom" (E.error_to_string (E.Lower_failed "boom"));
  Alcotest.(check string) "cost" "cost: boom" (E.error_to_string (E.Cost_failed "boom"));
  Alcotest.(check string) "sketch" "sketch: boom"
    (E.error_to_string (E.Sketch_invalid "boom"));
  Alcotest.(check bool) "verifier prefix" true
    (String.length
       (E.error_to_string
          (E.Verifier_rejected { V.reason = "r"; constraint_name = "wram" }))
    > 0)

(* --- batched measurement ------------------------------------------- *)

(* Run one batch on a fresh engine; return the results, the final
   counters, and the next value the caller's rng would produce (to
   check the rng advanced identically at any job count). *)
let run_batch ~jobs ~noise_seed op candidates =
  let e = E.create cfg in
  let rng = Rng.create ~seed:noise_seed in
  let results = E.batch e ~jobs ~rng op candidates in
  (results, E.counters e, Rng.bits rng)

let same_measurement a b =
  match (a, b) with
  | Ok m, Ok m' ->
      Int64.equal
        (Int64.bits_of_float m.E.latency_s)
        (Int64.bits_of_float m'.E.latency_s)
      && m.E.from_cache = m'.E.from_cache
      && m.E.artifact.E.stats = m'.E.artifact.E.stats
  | Error e, Error e' -> e = e'
  | (Ok _ | Error _), _ -> false

let same_int_counters a b =
  a.E.lookups = b.E.lookups && a.E.hits = b.E.hits && a.E.misses = b.E.misses
  && a.E.evictions = b.E.evictions
  && a.E.built = b.E.built && a.E.failed = b.E.failed

let check_jobs_equivalent ~noise_seed op candidates =
  let r1, c1, next1 = run_batch ~jobs:1 ~noise_seed op candidates in
  let r4, c4, next4 = run_batch ~jobs:4 ~noise_seed op candidates in
  List.length r1 = List.length r4
  && List.for_all2
       (fun (p, a) (p', b) -> p = p' && same_measurement a b)
       r1 r4
  && same_int_counters c1 c4 && next1 = next4

(* jobs:1 (inline, no domains) and jobs:4 (a domain pool) are one
   contract: same results in candidate order, bit-identical noisy
   latencies, same from_cache flags, same integer counters, and the
   caller's rng advanced by exactly one draw either way. *)
let test_batch_matches_sequential () =
  let op = Ops.mtv 64 128 in
  let candidates =
    [
      small_params;
      { small_params with Sk.tasklets = 8 };
      small_params (* duplicate: must be a cache hit, same stats *);
      { small_params with Sk.cache_elems = 32 };
    ]
  in
  let r1, c1, next1 = run_batch ~jobs:1 ~noise_seed:7 op candidates in
  let r4, c4, next4 = run_batch ~jobs:4 ~noise_seed:7 op candidates in
  Alcotest.(check int) "same length" (List.length r1) (List.length r4);
  List.iter2
    (fun (p1, a) (p4, b) ->
      Alcotest.(check bool) "same params order" true (p1 = p4);
      match (a, b) with
      | Ok s, Ok m ->
          Alcotest.(check (float 0.)) "same noisy latency" s.E.latency_s
            m.E.latency_s;
          Alcotest.(check bool) "same from_cache" s.E.from_cache m.E.from_cache;
          Alcotest.(check bool) "same stats" true
            (s.E.artifact.E.stats = m.E.artifact.E.stats)
      | Error a, Error b ->
          Alcotest.(check string) "same error" (E.error_to_string a)
            (E.error_to_string b)
      | _ -> Alcotest.fail "jobs:1 and jobs:4 outcomes disagree")
    r1 r4;
  (* the duplicate candidate was served from cache at both job counts *)
  Alcotest.(check int) "jobs:1 cache hit" 1 c1.E.hits;
  Alcotest.(check int) "jobs:4 cache hit" 1 c4.E.hits;
  Alcotest.(check int) "same lookups" c1.E.lookups c4.E.lookups;
  Alcotest.(check int) "same built" c1.E.built c4.E.built;
  Alcotest.(check bool) "rng advanced identically" true (next1 = next4)

(* A batch on a warm shared engine is served entirely from cache, even
   when the warm-up itself ran across domains. *)
let test_parallel_warmup_serves_hits () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let candidates =
    List.init 8 (fun i -> { small_params with Sk.cache_elems = 8 * (i + 1) })
  in
  let first = E.batch e ~jobs:4 op candidates in
  let built = (E.counters e).E.built and failed = (E.counters e).E.failed in
  let second = E.batch e ~jobs:4 op candidates in
  Alcotest.(check int) "no new builds" built (E.counters e).E.built;
  Alcotest.(check int) "no new failures" failed (E.counters e).E.failed;
  List.iter2
    (fun (_, a) (_, b) ->
      match (a, b) with
      | Ok m, Ok m' ->
          Alcotest.(check bool) "warm re-batch hits" true m'.E.from_cache;
          Alcotest.(check bool) "identical stats" true
            (m.E.artifact.E.stats = m'.E.artifact.E.stats)
      | Error a, Error b ->
          Alcotest.(check string) "same cached error" (E.error_to_string a)
            (E.error_to_string b)
      | _ -> Alcotest.fail "warm re-batch changed an outcome")
    first second

(* Property: for random operators, candidate lists (with forced
   duplicates) and seeds, a parallel batch is indistinguishable from a
   sequential one. *)
let prop_batch_jobs_equivalent =
  QCheck2.Test.make ~name:"batch ~jobs:4 equals ~jobs:1" ~count:25
    QCheck2.Gen.(
      tup4 (int_range 0 2) (int_range 0 10_000) (int_range 0 10_000)
        (int_range 1 10))
    (fun (which_op, cand_seed, noise_seed, n) ->
      let op =
        match which_op with
        | 0 -> Ops.mtv 64 128
        | 1 -> Ops.va 4096
        | _ -> Ops.gemm 16 16 16
      in
      let rng = Rng.create ~seed:cand_seed in
      let base = List.init n (fun _ -> Sk.random rng cfg op) in
      (* append a prefix of itself so every list has duplicate keys *)
      let candidates = base @ List.filteri (fun i _ -> i < (n + 1) / 2) base in
      check_jobs_equivalent ~noise_seed op candidates)

let test_measure_noise_fresh_on_hits () =
  let op = Ops.mtv 64 128 in
  let e = E.create cfg in
  let rng = Rng.create ~seed:11 in
  let m1 = Result.get_ok (E.measure e ~rng op small_params) in
  let m2 = Result.get_ok (E.measure e ~rng op small_params) in
  Alcotest.(check bool) "second from cache" true m2.E.from_cache;
  (* noise is drawn per measurement even on hits, stats stay identical *)
  Alcotest.(check bool) "stats identical" true
    (m1.E.artifact.E.stats = m2.E.artifact.E.stats);
  let base = U.Stats.total_s m1.E.artifact.E.stats in
  List.iter
    (fun l ->
      Alcotest.(check bool) "noise bounded" true
        (Float.abs (l -. base) /. base <= E.noise_amplitude +. 1e-9))
    [ m1.E.latency_s; m2.E.latency_s ]

(* --- integration with search and tuner ----------------------------- *)

let test_search_reports_cache_hits () =
  let module Se = Imtp_autotune.Search in
  let op = Ops.mtv 128 256 in
  let o = Se.run ~seed:9 cfg op ~trials:32 in
  (* evolutionary mutation re-proposes candidates; the engine dedups
     them and the outcome reports it. *)
  Alcotest.(check bool) "nonzero cache hits" true (o.Se.cache_hits > 0);
  Alcotest.(check bool) "hits bounded by trials" true (o.Se.cache_hits < 32)

let test_shared_engine_across_tunes () =
  let module Tu = Imtp_autotune.Tuner in
  let op = Ops.mtv 128 256 in
  let engine = E.create cfg in
  let r1 = Result.get_ok (Tu.tune ~seed:21 ~trials:16 ~engine cfg op) in
  let built_once = (E.counters engine).E.built in
  let r2 = Result.get_ok (Tu.tune ~seed:21 ~trials:16 ~engine cfg op) in
  (* identical seed on a warm shared engine: every candidate is served
     from cache, nothing new is built, and the result is unchanged. *)
  Alcotest.(check int) "no new builds" built_once (E.counters engine).E.built;
  Alcotest.(check bool) "nonzero hit rate" true
    (E.hit_rate (E.counters engine) > 0.);
  Alcotest.(check bool) "same winner" true (r1.Tu.params = r2.Tu.params);
  Alcotest.(check bool) "same stats" true (r1.Tu.stats = r2.Tu.stats)

let test_tuner_winner_not_rebuilt () =
  let module Tu = Imtp_autotune.Tuner in
  let op = Ops.va 50_000 in
  let engine = E.create cfg in
  let r = Result.get_ok (Tu.tune ~seed:5 ~trials:16 ~engine cfg op) in
  (* the winner's artifact must already be in cache from the search;
     re-measuring it now is a pure hit with the exact stats returned. *)
  match E.find engine op r.Tu.params with
  | Some (Ok a) ->
      Alcotest.(check bool) "tuner returned the cached artifact" true
        (a.E.stats = r.Tu.stats && a.E.program = r.Tu.program)
  | _ -> Alcotest.fail "winner missing from engine cache"

let test_eviction_resets_table () =
  let op = Ops.mtv 64 128 in
  let e = E.create ~max_entries:2 cfg in
  let p i = { small_params with Sk.cache_elems = 8 * (i + 1) } in
  List.iter (fun i -> ignore (E.build e op (p i))) [ 0; 1; 2; 3 ];
  let c = E.counters e in
  Alcotest.(check bool) "evicted at least once" true (c.E.evictions >= 1);
  (* still correct after eviction: rebuilt artifact equals a fresh one *)
  let a = Result.get_ok (E.build e op (p 0)) in
  let fresh = Result.get_ok (E.build (E.create cfg) op (p 0)) in
  Alcotest.(check bool) "rebuild identical" true (a.E.stats = fresh.E.stats)

let () =
  Alcotest.run "engine"
    [
      ( "hashing",
        [
          Alcotest.test_case "stable" `Quick test_fingerprint_stable;
          Alcotest.test_case "distinguishes" `Quick test_fingerprint_distinguishes;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit returns identical stats" `Quick
            test_cache_hit_identical_stats;
          Alcotest.test_case "errors cached" `Quick test_errors_cached;
          Alcotest.test_case "find is pure" `Quick test_find_is_pure;
          Alcotest.test_case "error rendering" `Quick test_error_to_string_prefixes;
          Alcotest.test_case "eviction" `Quick test_eviction_resets_table;
          Alcotest.test_case "prepare then build lowers once" `Quick
            test_prepare_then_build_lowers_once;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matches sequential" `Quick test_batch_matches_sequential;
          Alcotest.test_case "fresh noise on hits" `Quick
            test_measure_noise_fresh_on_hits;
          Alcotest.test_case "parallel warm-up serves hits" `Quick
            test_parallel_warmup_serves_hits;
          QCheck_alcotest.to_alcotest prop_batch_jobs_equivalent;
        ] );
      ( "integration",
        [
          Alcotest.test_case "search reports hits" `Quick test_search_reports_cache_hits;
          Alcotest.test_case "shared engine across tunes" `Quick
            test_shared_engine_across_tunes;
          Alcotest.test_case "winner not rebuilt" `Quick test_tuner_winner_not_rebuilt;
        ] );
    ]
