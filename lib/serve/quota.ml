type t = {
  capacity : float;  (* [infinity] = unlimited *)
  rate : float;  (* tokens per second; 0 = no refill *)
  mutable tokens : float;
  mutable last : float;  (* [nan] until the first acquire sets the clock origin *)
}

let unlimited () = { capacity = infinity; rate = 0.; tokens = infinity; last = nan }

let create ?burst ?rps () =
  match (burst, rps) with
  | None, None -> unlimited ()
  | _ ->
    let rate = Option.value rps ~default:0. in
    if rate < 0. || not (Float.is_finite rate) then
      invalid_arg "Quota.create: rps must be finite and non-negative";
    let capacity =
      match burst with
      | Some b ->
        if b < 1 then invalid_arg "Quota.create: burst must be at least 1";
        float_of_int b
      | None -> Float.max 1. (Float.round (ceil rate))
    in
    { capacity; rate; tokens = capacity; last = nan }

let is_limited t = t.capacity < infinity

let refill t ~now =
  if Float.is_nan t.last then t.last <- now
  else begin
    let dt = Float.max 0. (now -. t.last) in
    t.last <- now;
    t.tokens <- Float.min t.capacity (t.tokens +. (dt *. t.rate))
  end

let clock = function Some now -> now | None -> Blitz_util.Clock.now_s ()

let try_acquire ?now t =
  if not (is_limited t) then true
  else begin
    refill t ~now:(clock now);
    if t.tokens >= 1. then begin
      t.tokens <- t.tokens -. 1.;
      true
    end
    else false
  end

let remaining ?now t =
  if not (is_limited t) then infinity
  else begin
    refill t ~now:(clock now);
    t.tokens
  end
