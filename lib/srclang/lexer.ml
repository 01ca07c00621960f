(** Hand-written lexer for the mini-C language.

    Input is a whole source string; output is the token stream with the
    location of each token's first character.  Both [//] and [/* */]
    comments are supported.  The lexer never backtracks more than one
    character. *)

(* lexical errors are structured diagnostics, code E0101 *)
let err (l : Loc.t) fmt =
  Diagnostics.error ~line:l.Loc.line ~col:l.Loc.col ~code:"E0101"
    ~phase:Diagnostics.Lex fmt

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let make src = { src; pos = 0; line = 1; col = 1 }

let at_end st = st.pos >= String.length st.src

(* The character at [pos] (or [pos + 1]), or NUL past the end: callers
   test [at_end] wherever the end differs from a NUL in the source. *)
let peek st = if at_end st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 < String.length st.src then st.src.[st.pos + 1] else '\000'

(* only ever called on a character of the source *)
let advance st =
  if st.src.[st.pos] = '\n' then begin
    st.line <- st.line + 1;
    st.col <- 1
  end
  else st.col <- st.col + 1;
  st.pos <- st.pos + 1

let loc st = Loc.make ~line:st.line ~col:st.col

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
      advance st;
      skip_ws_and_comments st
  | '/' -> (
      match peek2 st with
      | '/' ->
          while not (at_end st || peek st = '\n') do
            advance st
          done;
          skip_ws_and_comments st
      | '*' ->
          let start = loc st in
          advance st;
          advance st;
          let rec to_close () =
            if at_end st then err start "unterminated comment"
            else if peek st = '*' && peek2 st = '/' then begin
              advance st;
              advance st
            end
            else begin
              advance st;
              to_close ()
            end
          in
          to_close ();
          skip_ws_and_comments st
      | _ -> ())
  | _ -> ()

let keyword_of_ident = function
  | "int" -> Some Token.KW_INT
  | "double" -> Some Token.KW_DOUBLE
  | "void" -> Some Token.KW_VOID
  | "if" -> Some Token.KW_IF
  | "else" -> Some Token.KW_ELSE
  | "while" -> Some Token.KW_WHILE
  | "for" -> Some Token.KW_FOR
  | "return" -> Some Token.KW_RETURN
  | _ -> None

let lex_number st =
  let start = st.pos in
  let start_loc = loc st in
  let digits () =
    while is_digit (peek st) do
      advance st
    done
  in
  digits ();
  let is_float = match peek st with '.' | 'e' | 'E' -> true | _ -> false in
  if is_float then begin
    if peek st = '.' then begin
      advance st;
      digits ()
    end;
    (match peek st with
    | 'e' | 'E' ->
        advance st;
        (match peek st with '+' | '-' -> advance st | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub st.src start (st.pos - start) in
    match float_of_string_opt text with
    | Some f -> Token.FLOAT_LIT f
    | None -> err start_loc "bad float literal %s" text
  end
  else
    let text = String.sub st.src start (st.pos - start) in
    match int_of_string_opt text with
    | Some n -> Token.INT_LIT n
    | None -> err start_loc "bad int literal %s" text

let lex_ident st =
  let start = st.pos in
  while is_ident_char (peek st) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match keyword_of_ident text with Some kw -> kw | None -> Token.IDENT text

(* Operators and punctuation; longest match first. *)
let lex_op st c =
  let l = loc st in
  let two tok =
    advance st;
    advance st;
    tok
  in
  let one tok =
    advance st;
    tok
  in
  match (c, peek2 st) with
  | '+', '+' -> two Token.PLUS_PLUS
  | '+', '=' -> two Token.PLUS_ASSIGN
  | '+', _ -> one Token.PLUS
  | '-', '-' -> two Token.MINUS_MINUS
  | '-', '=' -> two Token.MINUS_ASSIGN
  | '-', _ -> one Token.MINUS
  | '*', '=' -> two Token.STAR_ASSIGN
  | '*', _ -> one Token.STAR
  | '/', '=' -> two Token.SLASH_ASSIGN
  | '/', _ -> one Token.SLASH
  | '%', _ -> one Token.PERCENT
  | '<', '=' -> two Token.LE
  | '<', '<' -> two Token.SHL
  | '<', _ -> one Token.LT
  | '>', '=' -> two Token.GE
  | '>', '>' -> two Token.SHR
  | '>', _ -> one Token.GT
  | '=', '=' -> two Token.EQ
  | '=', _ -> one Token.ASSIGN
  | '!', '=' -> two Token.NE
  | '!', _ -> one Token.BANG
  | '&', '&' -> two Token.AMP_AMP
  | '&', _ -> one Token.AMP
  | '|', '|' -> two Token.BAR_BAR
  | '|', _ -> one Token.BAR
  | '^', _ -> one Token.CARET
  | '~', _ -> one Token.TILDE
  | '(', _ -> one Token.LPAREN
  | ')', _ -> one Token.RPAREN
  | '{', _ -> one Token.LBRACE
  | '}', _ -> one Token.RBRACE
  | '[', _ -> one Token.LBRACKET
  | ']', _ -> one Token.RBRACKET
  | ';', _ -> one Token.SEMI
  | ',', _ -> one Token.COMMA
  | _ -> err l "unexpected character %C" c

let next_token st =
  skip_ws_and_comments st;
  let l = loc st in
  if at_end st then (Token.EOF, l)
  else
    let c = peek st in
    if is_digit c then (lex_number st, l)
    else if is_ident_start c then (lex_ident st, l)
    else (lex_op st c, l)

(** Tokenize the whole input.  The trailing [EOF] token is included. *)
let tokenize src =
  let st = make src in
  let rec go acc =
    let tok, l = next_token st in
    let acc = (tok, l) :: acc in
    match tok with Token.EOF -> List.rev acc | _ -> go acc
  in
  go []
