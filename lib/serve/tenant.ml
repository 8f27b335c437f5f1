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

let make ?deadline_ms ?max_table_bytes ?rps ?burst name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Tenant.make: invalid name %S (want [A-Za-z0-9_.-]+)" name);
  let positive what = function
    | Some x when x <= 0. -> invalid_arg (Printf.sprintf "Tenant.make: %s must be positive" what)
    | v -> v
  in
  let deadline_ms = positive "deadline-ms" deadline_ms in
  (match max_table_bytes with
  | Some b when b <= 0 -> invalid_arg "Tenant.make: table-mb must be positive"
  | _ -> ());
  (match rps with
  | Some r when r < 0. || not (Float.is_finite r) ->
    invalid_arg "Tenant.make: rps must be finite and non-negative"
  | _ -> ());
  (match burst with
  | Some b when b < 1 -> invalid_arg "Tenant.make: burst must be at least 1"
  | _ -> ());
  { name; deadline_ms; max_table_bytes; rps; burst }

let default = { name = default_name; deadline_ms = None; max_table_bytes = None; rps = None; burst = None }

let quota t =
  match (t.rps, t.burst) with
  | None, None -> Quota.unlimited ()
  | rps, burst -> Quota.create ?burst ?rps ()

(* Spec grammar: tenants split on ';', each "name" or "name:k=v,k=v".
   Keys: deadline-ms, table-mb, rps, burst. *)
let parse_one chunk =
  let name, settings =
    match String.index_opt chunk ':' with
    | None -> (chunk, "")
    | Some i -> (String.sub chunk 0 i, String.sub chunk (i + 1) (String.length chunk - i - 1))
  in
  let name = String.trim name in
  let deadline_ms = ref None
  and table_mb = ref None
  and rps = ref None
  and burst = ref None in
  let parse_setting s =
    let s = String.trim s in
    if s = "" then Ok ()
    else
      match String.index_opt s '=' with
      | None -> Error (Err.format ~scope:"serve" "tenant %S: setting %S is not key=value" name s)
      | Some i -> (
        let key = String.sub s 0 i and v = String.sub s (i + 1) (String.length s - i - 1) in
        let num () =
          match float_of_string_opt v with
          | Some x when Float.is_finite x -> Ok x
          | _ -> Error (Err.format ~scope:"serve" "tenant %S: %s=%S is not a number" name key v)
        in
        match key with
        | "deadline-ms" -> Result.map (fun x -> deadline_ms := Some x) (num ())
        | "table-mb" -> Result.map (fun x -> table_mb := Some x) (num ())
        | "rps" -> Result.map (fun x -> rps := Some x) (num ())
        | "burst" -> (
          match int_of_string_opt v with
          | Some b -> Ok (burst := Some b)
          | None -> Error (Err.format ~scope:"serve" "tenant %S: burst=%S is not an integer" name v))
        | _ -> Error (Err.format ~scope:"serve" "tenant %S: unknown setting %S" name key))
  in
  let rec settings_loop = function
    | [] -> Ok ()
    | s :: rest -> ( match parse_setting s with Ok () -> settings_loop rest | Error _ as e -> e)
  in
  match settings_loop (String.split_on_char ',' settings) with
  | Error _ as e -> e
  | Ok () -> (
    let max_table_bytes =
      Option.map (fun mb -> int_of_float (mb *. 1024. *. 1024.)) !table_mb
    in
    match make ?deadline_ms:!deadline_ms ?max_table_bytes ?rps:!rps ?burst:!burst name with
    | t -> Ok t
    | exception Invalid_argument msg -> Error (Err.format ~scope:"serve" "%s" msg))

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
