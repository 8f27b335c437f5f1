(* Provenance stamped on every ladder result: what produced the numbers.

   The commit is read from .git in the working directory itself (never a
   parent directory, and without spawning git): a checkout exported
   without its history reports "unknown". *)

module Json = Blitz_util.Json

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> Some (String.trim s)
  | exception Sys_error _ -> None

let packed_ref name =
  match read_file ".git/packed-refs" with
  | None -> None
  | Some text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ sha; r ] when r = name -> Some sha
           | _ -> None)

let commit () =
  let resolved =
    match read_file ".git/HEAD" with
    | Some head when String.starts_with ~prefix:"ref: " head -> (
      let name = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" name) with
      | Some sha -> Some sha
      | None -> packed_ref name)
    | other -> other
  in
  match resolved with
  | Some sha when String.length sha = 40 -> sha
  | _ -> "unknown"

let cores_available () = Domain.recommended_domain_count ()

let json ~seed =
  Json.Obj
    [
      ("commit", Json.String (commit ()));
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("flambda", Json.Bool Build_info.flambda);
      ("cores_available", Json.Int (cores_available ()));
      ("seed", Json.Int seed);
    ]
