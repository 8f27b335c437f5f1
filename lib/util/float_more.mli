(** Small floating-point helpers shared across the repository. *)

val approx_equal : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx_equal ?rel ?abs x y] holds when [x] and [y] agree to within
    relative tolerance [rel] (default [1e-9]) or absolute tolerance [abs]
    (default [1e-12]).  Two infinities of the same sign compare equal. *)

val within_ulps : ?ulps:int -> float -> float -> bool
(** [within_ulps ~ulps x y] (default 8): at most [ulps] representable
    doubles separate [x] from [y] (0 when bitwise equal; [+0.] and [-0.]
    are 1 apart; infinities are ordinary points on the scale, so
    [infinity] vs [max_float] is 1) — the separation test backing the
    dpccp-vs-blitzsplit bit-identity gate.  False when either is NaN. *)

val pow_int : float -> int -> float
(** [pow_int x k] is [x] raised to the non-negative integer power [k] by
    repeated squaring (exact for small integral inputs, unlike [( ** )]). *)

val pp_engineering : Format.formatter -> float -> unit
(** Prints a float compactly: integers without a fraction part, large or
    tiny magnitudes in scientific notation ([2.4e+07]), and everything
    else with up to four significant decimals.  Used by table dumps. *)

val to_compact_string : float -> string
(** [to_compact_string x] renders via {!pp_engineering}. *)
