(** Recursive-descent parser for the SQL subset.

    Grammar (terminals in caps; [{...}] is the selectivity annotation):

    {v
    script     := statement* EOF
    statement  := create | select
    create     := CREATE TABLE ident '(' CARDINALITY number ')' ';'
    select     := SELECT '*' FROM from_item (',' from_item)*
                  [ WHERE predicate (AND predicate)* ]
                  [ ORDER BY colref ] ';'
    from_item  := ident [ [AS] ident ]
    predicate  := colref '=' colref [ '{' number '}' ]
    colref     := ident '.' ident
    v} *)

type error = { message : string; error_pos : Ast.position }

val pp_error : Format.formatter -> error -> unit

val parse_script : string -> (Ast.statement list, error) result
(** Lex and parse a whole script.  Lexer errors are reported through the
    same [error] type. *)
