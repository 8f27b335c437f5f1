(** Plain-text table rendering for benchmark reports.

    The paper presents its evaluation as tables and surface plots; our
    benchmark harness prints the same grids as aligned ASCII tables, which
    is the faithful reproducible artifact (see DESIGN.md, substitutions). *)

val render : header:string array -> string array array -> string
(** [render ~header rows] lays the table out with column widths sized
    to content, a separator rule under the header, and two spaces
    between columns.  The first column is left-aligned and the rest
    right-aligned (the common numeric layout).  Raises
    [Invalid_argument] when a row's width differs from the header's. *)

val print : header:string array -> string array array -> unit
(** [print] renders to [stdout], followed by a newline. *)
