module Json = Blitz_util.Json
module Err = Blitz_util.Err

type t = {
  name : string;
  deadline_ms : float option;
  max_table_bytes : int option;
  rps : float option;
  burst : int option;
}

let default_name = "default"

let valid_name name =
  String.length name > 0
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '.' || c = '-')
       name

let default = { name = default_name; deadline_ms = None; max_table_bytes = None; rps = None; burst = None }

let quota t =
  match (t.rps, t.burst) with
  | None, None -> Quota.unlimited ()
  | rps, burst -> Quota.create ?burst ?rps ()

(* Spec grammar: tenants split on ';', each "name" or "name:k=v,k=v".
   Keys: deadline-ms, table-mb, rps, burst.  Each value is checked as
   written, before any conversion. *)
let parse_one chunk =
  let name, settings =
    match String.index_opt chunk ':' with
    | None -> (chunk, "")
    | Some i -> (String.sub chunk 0 i, String.sub chunk (i + 1) (String.length chunk - i - 1))
  in
  let name = String.trim name in
  let fail fmt =
    Printf.ksprintf (fun msg -> Error (Err.format ~scope:"serve" "tenant %S: %s" name msg)) fmt
  in
  let t = ref { default with name } in
  let parse_setting s =
    let s = String.trim s in
    if s = "" then Ok ()
    else
      match String.index_opt s '=' with
      | None -> fail "setting %S is not key=value" s
      | Some i -> (
        let key = String.sub s 0 i and v = String.sub s (i + 1) (String.length s - i - 1) in
        let num check set =
          match float_of_string_opt v with
          | Some x when Float.is_finite x -> (
            match check x with
            | None -> Ok (t := set x)
            | Some problem -> fail "%s %s" key problem)
          | _ -> fail "%s=%S is not a number" key v
        in
        let positive x = if x > 0. then None else Some "must be positive" in
        match key with
        | "deadline-ms" -> num positive (fun x -> { !t with deadline_ms = Some x })
        | "table-mb" ->
          (* Rounded up, so a positive size never becomes 0 bytes. *)
          let bytes mb = Float.ceil (mb *. 1024. *. 1024.) in
          num
            (fun mb ->
              if bytes mb >= Float.of_int max_int then Some "is too large" else positive mb)
            (fun mb -> { !t with max_table_bytes = Some (int_of_float (bytes mb)) })
        | "rps" ->
          num
            (fun x -> if x >= 0. then None else Some "must be non-negative")
            (fun x -> { !t with rps = Some x })
        | "burst" -> (
          match int_of_string_opt v with
          | Some b when b >= 1 -> Ok (t := { !t with burst = Some b })
          | Some _ -> fail "burst must be at least 1"
          | None -> fail "burst=%S is not an integer" v)
        | _ -> fail "unknown setting %S" key)
  in
  let rec settings_loop = function
    | [] -> Ok !t
    | s :: rest -> ( match parse_setting s with Ok () -> settings_loop rest | Error _ as e -> e)
  in
  if valid_name name then settings_loop (String.split_on_char ',' settings)
  else fail "invalid name (want [A-Za-z0-9_.-]+)"

let parse_spec spec =
  let chunks = String.split_on_char ';' spec |> List.map String.trim |> List.filter (( <> ) "") in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | chunk :: rest -> (
      match parse_one chunk with
      | Error _ as e -> e
      | Ok t ->
        if List.exists (fun u -> u.name = t.name) acc then
          Error (Err.format ~scope:"serve" "duplicate tenant %S" t.name)
        else go (t :: acc) rest)
  in
  go [] chunks
