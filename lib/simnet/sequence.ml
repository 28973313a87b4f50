let participants_of trace =
  List.fold_left
    (fun acc e ->
      let add acc n = if List.mem n acc then acc else acc @ [ n ] in
      add (add acc e.Net.t_src) e.Net.t_dst)
    [] trace

let render trace =
  let columns = participants_of trace in
  match columns with
  | [] -> "(no messages)\n"
  | _ ->
    let width = List.fold_left (fun w n -> max w (String.length n)) 8 columns + 2 in
    let buf = Buffer.create 1024 in
    let pos name =
      let rec go i = function
        | [] -> 0
        | n :: rest -> if n = name then i else go (i + 1) rest
      in
      go 0 columns
    in
    (* Header row. *)
    List.iter
      (fun n -> Buffer.add_string buf (Printf.sprintf "%-*s" width n))
      columns;
    Buffer.add_char buf '\n';
    List.iter
      (fun e ->
        let a = pos e.Net.t_src and b = pos e.Net.t_dst in
        let lo = min a b and hi = max a b in
        let line = Bytes.make (width * List.length columns) ' ' in
        List.iteri (fun i _ -> Bytes.set line (i * width) '|') columns;
        (* Arrow body between the two lifelines. *)
        if lo <> hi then begin
          for x = (lo * width) + 1 to (hi * width) - 1 do
            Bytes.set line x '-'
          done;
          if a < b then Bytes.set line ((hi * width) - 1) '>'
          else Bytes.set line ((lo * width) + 1) '<'
        end;
        Buffer.add_string buf (Bytes.to_string line);
        Buffer.add_string buf (Printf.sprintf "  %-24s t=%.3f\n" e.Net.t_category e.Net.t_time))
      trace;
    Buffer.contents buf
