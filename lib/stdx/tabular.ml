let render_table ~headers ~rows =
  let arity = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> arity then
        invalid_arg "Tabular.render_table: row arity mismatch")
    rows;
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if String.length cell > widths.(i) then widths.(i) <- String.length cell)
        row)
    rows;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let render_row row = "| " ^ String.concat " | " (List.mapi pad row) ^ " |" in
  let sep =
    "|-"
    ^ String.concat "-|-" (Array.to_list (Array.map (fun w -> String.make w '-') widths))
    ^ "-|"
  in
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer (render_row headers);
  Buffer.add_char buffer '\n';
  Buffer.add_string buffer sep;
  Buffer.add_char buffer '\n';
  List.iter
    (fun row ->
      Buffer.add_string buffer (render_row row);
      Buffer.add_char buffer '\n')
    rows;
  Buffer.contents buffer

let print_table ~headers ~rows = print_string (render_table ~headers ~rows)

let bar ~width ~max_value v =
  if max_value <= 0.0 || v <= 0.0 then ""
  else
    let cells = int_of_float (Float.round (v /. max_value *. float_of_int width)) in
    String.make (Stdlib.min width (Stdlib.max 0 cells)) '#'

let fmt_bytes v =
  let abs = Float.abs v in
  if abs >= 1024.0 *. 1024.0 *. 1024.0 then
    Printf.sprintf "%.2f GB" (v /. (1024.0 *. 1024.0 *. 1024.0))
  else if abs >= 1024.0 *. 1024.0 then Printf.sprintf "%.2f MB" (v /. (1024.0 *. 1024.0))
  else if abs >= 1024.0 then Printf.sprintf "%.2f KB" (v /. 1024.0)
  else Printf.sprintf "%.0f B" v

let fmt_pct ?(decimals = 1) v = Printf.sprintf "%.*f%%" decimals (v *. 100.0)
