type t = {
  mutable icost : int;
  mutable produced : int;
  mutable output : int;
  mutable cache_hits : int;
  mutable intersections : int;
  mutable hj_build_tuples : int;
  mutable hj_probe_tuples : int;
  mutable morsels : int;
  mutable busy_s : float;
  mutable gov_checks : int;
}

let create () =
  {
    icost = 0;
    produced = 0;
    output = 0;
    cache_hits = 0;
    intersections = 0;
    hj_build_tuples = 0;
    hj_probe_tuples = 0;
    morsels = 0;
    busy_s = 0.0;
    gov_checks = 0;
  }

let intermediate c = c.produced - c.output

let add dst src =
  dst.icost <- dst.icost + src.icost;
  dst.produced <- dst.produced + src.produced;
  dst.output <- dst.output + src.output;
  dst.cache_hits <- dst.cache_hits + src.cache_hits;
  dst.intersections <- dst.intersections + src.intersections;
  dst.hj_build_tuples <- dst.hj_build_tuples + src.hj_build_tuples;
  dst.hj_probe_tuples <- dst.hj_probe_tuples + src.hj_probe_tuples;
  dst.morsels <- dst.morsels + src.morsels;
  dst.busy_s <- dst.busy_s +. src.busy_s;
  dst.gov_checks <- dst.gov_checks + src.gov_checks

let merge cs =
  let out = create () in
  List.iter (add out) cs;
  out

let pp fmt c =
  Format.fprintf fmt
    "output=%d intermediate=%d icost=%d cache_hits=%d intersections=%d hj=(%d,%d)" c.output
    (intermediate c) c.icost c.cache_hits c.intersections c.hj_build_tuples c.hj_probe_tuples;
  if c.morsels > 0 then
    Format.fprintf fmt " morsels=%d busy=%.3fs" c.morsels c.busy_s;
  if c.gov_checks > 0 then Format.fprintf fmt " gov_checks=%d" c.gov_checks
