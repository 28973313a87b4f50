type counter = { mutable c : int }
type gauge = { mutable g : float }

type exemplar = { e_value : float; e_trace : string; e_at : float }

type histogram = {
  hist : Loghist.t;
  exemplars : exemplar option array;  (* one per bucket: latest observation *)
}

type instrument = I_counter of counter | I_gauge of gauge | I_histogram of histogram

type kind = K_counter | K_gauge | K_histogram

let kind_name = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_histogram -> "histogram"

type t = {
  now : unit -> float;
  series : (string * (string * string) list, instrument) Hashtbl.t;
  meta : (string, kind * string) Hashtbl.t;  (* name -> kind, help *)
  mutable lookups : int;
}

let create ?(now = fun () -> 0.0) () =
  { now; series = Hashtbl.create 64; meta = Hashtbl.create 32; lookups = 0 }

let lookups t = t.lookups

let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let canonical_labels name labels =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) -> if a = b then Some a else dup rest
    | _ -> None
  in
  (match dup sorted with
  | Some k -> invalid_arg (Printf.sprintf "Metrics: duplicate label %S on %s" k name)
  | None -> ());
  sorted

let register t ~name ~labels ~kind ~help ~make ~cast =
  t.lookups <- t.lookups + 1;
  if not (valid_name name) then invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  let labels = canonical_labels name labels in
  (match Hashtbl.find_opt t.meta name with
  | Some (k, _) when k <> kind ->
    invalid_arg
      (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name (kind_name k)
         (kind_name kind))
  | Some _ -> ()
  | None -> Hashtbl.replace t.meta name (kind, help));
  match Hashtbl.find_opt t.series (name, labels) with
  | Some i -> cast i
  | None ->
    let i = make () in
    Hashtbl.replace t.series (name, labels) i;
    cast i

let counter t ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~kind:K_counter ~help
    ~make:(fun () -> I_counter { c = 0 })
    ~cast:(function I_counter c -> c | I_gauge _ | I_histogram _ -> assert false)

let inc ?(by = 1) counter =
  if by < 0 then invalid_arg "Metrics.inc: counters only go up";
  counter.c <- counter.c + by

let counter_value counter = counter.c

let gauge t ?(help = "") name =
  register t ~name ~labels:[] ~kind:K_gauge ~help
    ~make:(fun () -> I_gauge { g = 0.0 })
    ~cast:(function I_gauge g -> g | I_counter _ | I_histogram _ -> assert false)

let set_gauge gauge v = gauge.g <- v
let set_gauge_count gauge n = gauge.g <- float_of_int n

let histogram t ?(help = "") ?(labels = []) name =
  register t ~name ~labels ~kind:K_histogram ~help
    ~make:(fun () ->
      I_histogram
        { hist = Loghist.create (); exemplars = Array.make (Loghist.buckets + 1) None })
    ~cast:(function I_histogram h -> h | I_counter _ | I_gauge _ -> assert false)

let observe h v = Loghist.observe h.hist v

let observe_exemplar h v ~trace ~at =
  Loghist.observe h.hist v;
  if trace <> "" then
    h.exemplars.(Loghist.index v) <- Some { e_value = v; e_trace = trace; e_at = at }

let loghist h = h.hist

let histogram_exemplars h =
  List.concat
    (List.init (Array.length h.exemplars) (fun i ->
         match h.exemplars.(i) with None -> [] | Some e -> [ (Loghist.bound i, e) ]))

(* --- snapshot ----------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; sum : float; count : int }

type sample = { name : string; labels : (string * string) list; value : value }

let snapshot t =
  let all =
    Hashtbl.fold
      (fun (name, labels) i acc ->
        let value =
          match i with
          | I_counter c -> Counter c.c
          | I_gauge g -> Gauge g.g
          | I_histogram { hist; _ } ->
            Histogram
              {
                buckets = Array.to_list (Loghist.bucket_counts hist);
                sum = Loghist.sum hist;
                count = Loghist.count hist;
              }
        in
        { name; labels; value } :: acc)
      t.series []
  in
  List.sort (fun a b -> compare (a.name, a.labels) (b.name, b.labels)) all

let sum_counter t name =
  Hashtbl.fold
    (fun (n, _) i acc -> match i with I_counter c when n = name -> acc + c.c | _ -> acc)
    t.series 0

let sum_counter_by t name ~label =
  let tally = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (n, labels) i ->
      match i with
      | I_counter c when n = name -> (
        match List.assoc_opt label labels with
        | Some v ->
          let prev = Option.value (Hashtbl.find_opt tally v) ~default:0 in
          Hashtbl.replace tally v (prev + c.c)
        | None -> ())
      | _ -> ())
    t.series;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let series_count t = Hashtbl.length t.series

(* --- exposition --------------------------------------------------------- *)

(* %.12g keeps exact small decimals (0.005 renders as "0.005") while
   staying byte-stable for a given value. *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let label_str labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let render t =
  let stamp = Printf.sprintf " %.0f" (t.now () *. 1000.0) in
  let buf = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  let header name =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.replace seen_header name ();
      let kind, help = try Hashtbl.find t.meta name with Not_found -> (K_gauge, "") in
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name (kind_name kind))
    end
  in
  List.iter
    (fun s ->
      header s.name;
      match s.value with
      | Counter c ->
        Buffer.add_string buf (Printf.sprintf "%s%s %d%s\n" s.name (label_str s.labels) c stamp)
      | Gauge g ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s%s\n" s.name (label_str s.labels) (float_str g) stamp)
      | Histogram { buckets; sum; count } ->
        let cumulative = ref 0 in
        List.iter
          (fun (le, n) ->
            cumulative := !cumulative + n;
            let le_str = if le = infinity then "+Inf" else float_str le in
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d%s\n" s.name
                 (label_str (s.labels @ [ ("le", le_str) ]))
                 !cumulative stamp))
          buckets;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s%s\n" s.name (label_str s.labels) (float_str sum) stamp);
        Buffer.add_string buf
          (Printf.sprintf "%s_count%s %d%s\n" s.name (label_str s.labels) count stamp))
    (snapshot t);
  Buffer.contents buf

(* --- JSON --------------------------------------------------------------- *)

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let render_json t =
  let labels_json labels =
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) labels)
    ^ "}"
  in
  let sample_json s =
    let common = Printf.sprintf "\"name\":%s,\"labels\":%s" (json_string s.name) (labels_json s.labels) in
    match s.value with
    | Counter c -> Printf.sprintf "{%s,\"type\":\"counter\",\"value\":%d}" common c
    | Gauge g -> Printf.sprintf "{%s,\"type\":\"gauge\",\"value\":%s}" common (float_str g)
    | Histogram { buckets; sum; count } ->
      Printf.sprintf "{%s,\"type\":\"histogram\",\"buckets\":[%s],\"sum\":%s,\"count\":%d}" common
        (String.concat ","
           (List.map
              (fun (le, n) ->
                Printf.sprintf "[%s,%d]" (if le = infinity then "\"+Inf\"" else float_str le) n)
              buckets))
        (float_str sum) count
  in
  Printf.sprintf "{\"at\":%s,\"metrics\":[%s]}" (float_str (t.now ()))
    (String.concat "," (List.map sample_json (snapshot t)))
