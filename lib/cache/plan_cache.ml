module Plan = Blitz_plan.Plan
module Obs = Blitz_obs.Obs

let m_hits = Obs.Metrics.counter ~help:"Plan-cache exact hits" "blitz_cache_hits_total"
let m_misses = Obs.Metrics.counter ~help:"Plan-cache exact misses" "blitz_cache_misses_total"

let m_insertions =
  Obs.Metrics.counter ~help:"Plan-cache entries inserted" "blitz_cache_insertions_total"

let m_evictions =
  Obs.Metrics.counter ~help:"Plan-cache LRU evictions" "blitz_cache_evictions_total"

let m_rebases =
  Obs.Metrics.counter ~help:"Plan-cache hits renumbered to the caller's labeling"
    "blitz_cache_rebases_total"

type node = {
  key : int;
  fp : Fingerprint.frozen;
  optimizer : string;
  plan : Plan.t;  (* canonical index space *)
  cost : float;
  bytes : int;
  mutable prev : node;
  mutable next : node;
}

let dummy_frozen = Fingerprint.freeze (Fingerprint.create_scratch ())

let make_sentinel () =
  let rec s =
    {
      key = 0;
      fp = dummy_frozen;
      optimizer = "";
      plan = Plan.Leaf 0;
      cost = nan;
      bytes = 0;
      prev = s;
      next = s;
    }
  in
  s

let unlink nd =
  nd.prev.next <- nd.next;
  nd.next.prev <- nd.prev

let push_front sent nd =
  nd.next <- sent.next;
  nd.prev <- sent;
  sent.next.prev <- nd;
  sent.next <- nd

type shard = {
  lock : Mutex.t;
  tbl : (int, node list) Hashtbl.t;
  sent : node;  (* MRU = [sent.next], LRU tail = [sent.prev] *)
  budget : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable insertions : int;
  mutable evictions : int;
  mutable rebases : int;
}

type t = { shards_arr : shard array; mask : int; max_bytes : int }

let max_bytes t = t.max_bytes

let next_pow2 x =
  let r = ref 1 in
  while !r < x do
    r := !r lsl 1
  done;
  !r

let create ?(shards = 8) ?(max_bytes = 64 * 1024 * 1024) () =
  if shards <= 0 then invalid_arg "Plan_cache.create: shards must be positive";
  if max_bytes <= 0 then invalid_arg "Plan_cache.create: max_bytes must be positive";
  let count = next_pow2 shards in
  let budget = max 1 (max_bytes / count) in
  let mk _ =
    {
      lock = Mutex.create ();
      tbl = Hashtbl.create 64;
      sent = make_sentinel ();
      budget;
      bytes = 0;
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
      rebases = 0;
    }
  in
  { shards_arr = Array.init count mk; mask = count - 1; max_bytes }

let string_hash str = String.fold_left (fun h c -> (h * 31) + Char.code c) 5381 str

let entry_key scratch ~optimizer =
  (* Mix the optimizer name in so e.g. "exact" and "dpsize" results for
     the same problem live in distinct entries. *)
  let h = Fingerprint.hash scratch lxor (string_hash optimizer * 0x100000001b3) in
  h lxor (h lsr 31)

let shard_of t key = t.shards_arr.((key lsr 1) land t.mask)

let with_lock sh f =
  Mutex.lock sh.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.lock) f

type hit = { plan : Plan.t; cost : float; rebased : bool }

let find t scratch ~optimizer =
  let key = entry_key scratch ~optimizer in
  let sh = shard_of t key in
  let found =
    with_lock sh (fun () ->
        let nodes = Option.value ~default:[] (Hashtbl.find_opt sh.tbl key) in
        match
          List.find_opt
            (fun nd -> String.equal nd.optimizer optimizer && Fingerprint.matches scratch nd.fp)
            nodes
        with
        | None ->
            sh.misses <- sh.misses + 1;
            None
        | Some nd ->
            unlink nd;
            push_front sh.sent nd;
            sh.hits <- sh.hits + 1;
            let rebased = not (Fingerprint.same_labeling scratch nd.fp) in
            if rebased then sh.rebases <- sh.rebases + 1;
            Some (nd, rebased))
  in
  match found with
  | None ->
      Obs.Metrics.incr m_misses;
      None
  | Some (nd, rebased) ->
      Obs.Metrics.incr m_hits;
      if rebased then Obs.Metrics.incr m_rebases;
      (* Rebase outside the lock: the stored plan is immutable and the
         scratch is caller-owned, so eviction races are harmless. *)
      Some { plan = Fingerprint.rebase_plan scratch nd.plan; cost = nd.cost; rebased }

let plan_bytes plan =
  let word = Sys.word_size / 8 in
  let rec sz = function
    | Plan.Leaf _ -> 2 * word
    | Plan.Join (l, r) -> (3 * word) + sz l + sz r
    | Plan.Multiway { inputs; cover; agm = _ } ->
      (* Node + per-input list cells + cover entries (members list cells
         plus the boxed weight). *)
      List.fold_left (fun acc p -> acc + (3 * word) + sz p) (4 * word) inputs
      + List.fold_left
          (fun acc (members, _) -> acc + ((3 + (3 * List.length members)) * word))
          0 cover
  in
  sz plan

let node_bytes ~fp ~plan ~optimizer =
  let word = Sys.word_size / 8 in
  (12 * word) + Fingerprint.frozen_bytes fp + plan_bytes plan + String.length optimizer + word

let evict_over_budget sh =
  let evicted = ref 0 in
  while sh.bytes > sh.budget && sh.sent.prev != sh.sent do
    let victim = sh.sent.prev in
    unlink victim;
    (match Hashtbl.find_opt sh.tbl victim.key with
    | None -> ()
    | Some nodes -> (
        match List.filter (fun nd -> nd != victim) nodes with
        | [] -> Hashtbl.remove sh.tbl victim.key
        | rest -> Hashtbl.replace sh.tbl victim.key rest));
    sh.bytes <- sh.bytes - victim.bytes;
    sh.evictions <- sh.evictions + 1;
    incr evicted
  done;
  !evicted

let store t scratch ~optimizer ~plan ~cost =
  let key = entry_key scratch ~optimizer in
  let sh = shard_of t key in
  (* Canonize and freeze outside the lock; both only read caller state. *)
  let canonical = Fingerprint.canonize_plan scratch plan in
  let fp = Fingerprint.freeze scratch in
  let inserted, evicted =
    with_lock sh (fun () ->
        let nodes = Option.value ~default:[] (Hashtbl.find_opt sh.tbl key) in
        match
          List.find_opt
            (fun nd -> String.equal nd.optimizer optimizer && Fingerprint.matches scratch nd.fp)
            nodes
        with
        | Some nd ->
            (* Duplicate store (two sessions raced the same miss): keep
               the resident entry, just refresh its recency. *)
            unlink nd;
            push_front sh.sent nd;
            (false, 0)
        | None ->
            let nd =
              {
                key;
                fp;
                optimizer;
                plan = canonical;
                cost;
                bytes = node_bytes ~fp ~plan:canonical ~optimizer;
                prev = sh.sent;
                next = sh.sent;
              }
            in
            Hashtbl.replace sh.tbl key (nd :: nodes);
            push_front sh.sent nd;
            sh.bytes <- sh.bytes + nd.bytes;
            sh.insertions <- sh.insertions + 1;
            (true, evict_over_budget sh))
  in
  if inserted then Obs.Metrics.incr m_insertions;
  if evicted > 0 then Obs.Metrics.add m_evictions evicted

let resident_bytes t =
  Array.fold_left
    (fun acc sh -> acc + with_lock sh (fun () -> sh.bytes))
    0 t.shards_arr

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
  rebases : int;
  shape_hits : int;
  band_hits : int;
  entries : int;
  bytes : int;
}

let stats t =
  Array.fold_left
    (fun acc sh ->
      with_lock sh (fun () ->
          {
            acc with
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            insertions = acc.insertions + sh.insertions;
            evictions = acc.evictions + sh.evictions;
            rebases = acc.rebases + sh.rebases;
            entries =
              acc.entries + Hashtbl.fold (fun _ nodes n -> n + List.length nodes) sh.tbl 0;
            bytes = acc.bytes + sh.bytes;
          }))
    {
      hits = 0;
      misses = 0;
      insertions = 0;
      evictions = 0;
      rebases = 0;
      shape_hits = 0;
      band_hits = 0;
      entries = 0;
      bytes = 0;
    }
    t.shards_arr

let clear t =
  Array.iter
    (fun sh ->
      with_lock sh (fun () ->
          Hashtbl.reset sh.tbl;
          sh.bytes <- 0;
          let s = sh.sent in
          s.prev <- s;
          s.next <- s))
    t.shards_arr
