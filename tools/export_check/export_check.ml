(* The exported-surface check, read from the compiler's typed trees.

   Usage: export_check [ROOT]   (after `dune build @check` in ROOT)

   Every .cmt/.cmti under ROOT/_build/default is read, and each value
   identifier and constructor in an implementation is resolved to the
   unit that defines it: the environment of the expression is rebuilt
   from its summary, with the load path the unit was compiled with, and
   the path is normalised, so library wrappers, opens and module aliases
   land on the defining unit.  An identifier that cannot be resolved
   fails the check.

   Four kinds of finding, each printed on its own line:
   - a `val` of a lib .mli, top-level or in a submodule signature, that
     no other unit under lib, bin, bench, benchmark or examples
     references (a reference under test/ does not count), unless
     ROOT/tools/export_check/hooks lists it with a reason; a hook that
     names no `val`, gives no reason or has such a caller fails too;
   - an optional argument `?x` of such a `val` that no call from those
     units passes, as `~x` or `?x` (the `None` the compiler fills in for
     an omitted argument is not a pass, and a reference that is not
     applied passes every label), printed `<mli>:<val>?x`, unless the
     hooks list it the same way;
   - a reference that breaks an `only` rule of ROOT/tools/export_check/rules
     (the value may be referenced under a directory only from the files
     listed, or from none);
   - a `val` of a module that a `covered` rule names but that the rule's
     file never references. *)

open Typedtree

let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else "."
let build = Filename.concat root "_build/default"

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let under dirs file =
  List.exists (fun dir -> String.starts_with ~prefix:(dir ^ "/") file) dirs

let caller_dirs = [ "lib"; "bin"; "bench"; "benchmark"; "examples" ]

(* ---- Typed trees ---- *)

let rec typed_trees dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then typed_trees path acc
      else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* A unit whose source is gone is a stale build artefact; a library's
   wrapper is generated by dune. *)
let units =
  if not (Sys.file_exists build) then (
    prerr_endline ("no " ^ build ^ ": run `dune build @check` first");
    exit 2);
  List.filter_map
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match cmt.cmt_sourcefile with
      | Some src
        when Filename.check_suffix src ".ml-gen" || Sys.file_exists (Filename.concat root src) ->
          Some (src, cmt)
      | _ -> None)
    (List.sort compare (typed_trees build []))

(* The alias modules dune generates for each library and executable. *)
let wrappers = Hashtbl.create 64

let () =
  List.iter
    (fun (src, (cmt : Cmt_format.cmt_infos)) ->
      if Filename.check_suffix src ".ml-gen" then Hashtbl.replace wrappers cmt.cmt_modname ())
    units

(* ---- Exported values, and constructors a rule may name ---- *)

(* (module name, qualified name) -> "lib/x/y.mli:Sub.name" *)
let exports = Hashtbl.create 1024
let constructors = Hashtbl.create 256
let interfaces = Hashtbl.create 128

(* (module name, qualified name) -> the optional labels of its type *)
let optionals = Hashtbl.create 256

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let rec walk_signature modname mli prefix (s : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = prefix ^ vd.val_name.txt in
          Hashtbl.replace exports (modname, name) (mli ^ ":" ^ name);
          Hashtbl.replace optionals (modname, name) (optional_labels vd.val_desc.ctyp_type)
      | Tsig_type (_, decls) ->
          List.iter
            (fun td ->
              match td.typ_kind with
              | Ttype_variant cds ->
                  List.iter
                    (fun cd ->
                      let name = prefix ^ cd.cd_name.txt in
                      Hashtbl.replace constructors (modname, name) (mli ^ ":" ^ name))
                    cds
              | _ -> ())
            decls
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
          walk_signature modname mli (prefix ^ m ^ ".") s
      | _ -> ())
    s.sig_items

let () =
  List.iter
    (fun (src, (cmt : Cmt_format.cmt_infos)) ->
      match cmt.cmt_annots with
      | Interface s when under [ "lib" ] src ->
          Hashtbl.replace interfaces cmt.cmt_modname src;
          walk_signature cmt.cmt_modname src "" s
      | _ -> ())
    units

(* "lib/x/y.mli:Sub.name" -> the key it names, if any. *)
let by_name = Hashtbl.create 1024

let () =
  Hashtbl.iter (fun key name -> Hashtbl.replace by_name name key) exports;
  Hashtbl.iter (fun key name -> Hashtbl.replace by_name name key) constructors

(* ---- References ---- *)

(* (module name, qualified name) -> the files that reference it, with a
   line each and the optional labels the reference passes: [None] for a
   reference that is not applied, which may pass any. *)
let references : (string * string, string * int * string list option) Hashtbl.t =
  Hashtbl.create 8192

let resolved = ref 0

let rec split = function
  | Path.Pident id -> Some (id, [])
  | Pdot (p, s) -> Option.map (fun (id, names) -> (id, s :: names)) (split p)
  | _ -> None

let set_load_path (cmt : Cmt_format.cmt_infos) =
  let dir d = if Filename.is_relative d then Filename.concat build d else d in
  Load_path.init ~auto_include:Load_path.no_auto_include (List.map dir cmt.cmt_loadpath);
  Env.reset_cache ();
  Envaux.reset_cache ()

(* A path whose head is a compilation unit lands on that unit.  One
   into a lib interface must name what it exports, and one into a
   library wrapper means an alias was not followed. *)
let record ?labels src (loc : Location.t) ~known path =
  match split path with
  | Some (id, rev_names) when Ident.global id ->
      let modname = Ident.name id and name = String.concat "." (List.rev rev_names) in
      incr resolved;
      if Hashtbl.mem wrappers modname
         || (Hashtbl.mem interfaces modname && not (Hashtbl.mem known (modname, name)))
      then
        problem "%s:%d: cannot resolve %s (lands on %s.%s)" src loc.loc_start.pos_lnum
          (Path.name path) modname name
      else Hashtbl.add references (modname, name) (src, loc.loc_start.pos_lnum, labels)
  | _ -> ()

let resolve src (loc : Location.t) env normalize p =
  match normalize (Some loc) (Envaux.env_of_only_summary env) p with
  | p -> Some p
  | exception e ->
      problem "%s:%d: cannot resolve %s (%s)" src loc.loc_start.pos_lnum (Path.name p)
        (Printexc.to_string e);
      None

let constructor src loc env (cd : Types.constructor_description) =
  match Types.get_desc cd.cstr_res with
  | Tconstr (ty, _, _) -> (
      match resolve src loc env Env.normalize_type_path ty with
      | Some (Pdot (prefix, _)) ->
          record src loc ~known:constructors (Pdot (prefix, cd.cstr_name))
      | _ -> ())
  | _ -> ()

(* The function an application calls, with the arguments of every
   application in a curried chain such as [(f x) ~y]. *)
let rec applied f args =
  match f.exp_desc with Texp_apply (g, inner) -> applied g (inner @ args) | _ -> (f, args)

(* An omitted optional argument of a full application is the compiler's
   [None], which has no location. *)
let passed = function
  | Asttypes.Optional l, Some a when a.exp_loc <> Location.none -> Some l
  | _ -> None

let iterator src =
  let ident ?labels e p =
    Option.iter
      (record ?labels src e.exp_loc ~known:exports)
      (resolve src e.exp_loc e.exp_env Env.normalize_value_path p)
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_apply (f, args) -> (
        (* The callee is not visited on its own: that would count it as
           an unapplied reference. *)
        match applied f args with
        | ({ exp_desc = Texp_ident (p, _, _); _ } as f), args ->
            ident ~labels:(List.filter_map passed args) f p;
            List.iter (fun (_, a) -> Option.iter (sub.Tast_iterator.expr sub) a) args
        | _ -> Tast_iterator.default_iterator.expr sub e)
    | Texp_ident (p, _, _) -> ident e p
    | Texp_construct (_, cd, _) ->
        constructor src e.exp_loc e.exp_env cd;
        Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_construct (_, cd, _, _) -> constructor src p.pat_loc p.pat_env cd
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  { Tast_iterator.default_iterator with expr; pat }

let () =
  List.iter
    (fun (src, (cmt : Cmt_format.cmt_infos)) ->
      match cmt.cmt_annots with
      | Implementation str ->
          set_load_path cmt;
          let it = iterator src in
          it.structure it str
      | _ -> ())
    units

(* A unit's references to its own values are local paths, never
   recorded, so every recorded reference comes from another unit. *)
let callers key =
  List.filter (fun (src, _, _) -> under caller_dirs src) (Hashtbl.find_all references key)

(* ---- Hooks ---- *)

let lines file =
  let path = Filename.concat root file in
  if not (Sys.file_exists path) then (
    problem "%s: missing" file;
    [])
  else
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')

let words l = List.filter (( <> ) "") (String.split_on_char ' ' l)

let hooks = Hashtbl.create 64
let label_hooks = Hashtbl.create 16

let () =
  List.iter
    (fun (_, l) ->
      match words l with
      | [] -> ()
      | [ name ] -> problem "%s (hook without a reason)" name
      | name :: _ -> (
          match String.split_on_char '?' name with
          | [ value; label ] -> (
              match Hashtbl.find_opt by_name value with
              | Some key when List.mem label (Hashtbl.find_opt optionals key |> Option.value ~default:[])
                ->
                  Hashtbl.replace label_hooks (key, label) name
              | _ -> problem "%s (hook names no optional argument)" name)
          | _ -> (
              match Hashtbl.find_opt by_name name with
              | Some key when Hashtbl.mem exports key -> Hashtbl.replace hooks key name
              | _ -> problem "%s (hook names no val)" name)))
    (lines "tools/export_check/hooks")

let () =
  Hashtbl.iter
    (fun key name ->
      match (callers key, Hashtbl.mem hooks key) with
      | [], false -> problem "%s" name
      | (src, line, _) :: _, true -> problem "%s (hook has a caller: %s:%d)" name src line
      | _ -> ())
    exports

(* ---- Optional arguments ---- *)

let () =
  Hashtbl.iter
    (fun key labels ->
      let callers = callers key in
      List.iter
        (fun label ->
          let setter =
            List.find_opt
              (fun (_, _, passed) -> match passed with None -> true | Some ls -> List.mem label ls)
              callers
          in
          let name = Hashtbl.find exports key ^ "?" ^ label in
          match (setter, Hashtbl.mem label_hooks (key, label)) with
          | None, false -> problem "%s" name
          | Some (src, line, _), true -> problem "%s (hook has a caller: %s:%d)" name src line
          | _ -> ())
        labels)
    optionals

(* ---- Rules ---- *)

let rules = "tools/export_check/rules"

let () =
  List.iter
    (fun (n, l) ->
      match words l with
      | "only" :: name :: scope :: allowed -> (
          match Hashtbl.find_opt by_name name with
          | Some key ->
              List.iter
                (fun (src, line, _) ->
                  if under [ scope ] src && not (List.mem src allowed) then
                    if allowed = [] then
                      problem "%s:%d: %s referenced under %s (%s:%d)" src line name scope rules n
                    else
                      problem "%s:%d: %s referenced outside %s (%s:%d)" src line name
                        (String.concat ", " allowed) rules n)
                (Hashtbl.find_all references key)
          | None -> problem "%s:%d: %s names nothing" rules n name)
      | [ "covered"; pattern; file ] when String.ends_with ~suffix:".*" pattern ->
          let prefix = String.sub pattern 0 (String.length pattern - 1) in
          let vals =
            Hashtbl.fold
              (fun key name acc -> if String.starts_with ~prefix name then (key, name) :: acc else acc)
              exports []
          in
          if vals = [] then problem "%s:%d: %s names nothing" rules n pattern;
          List.iter
            (fun (key, name) ->
              if not (List.exists (fun (src, _, _) -> src = file) (Hashtbl.find_all references key))
              then problem "%s not referenced from %s (%s:%d)" name file rules n)
            vals
      | _ -> problem "%s:%d: cannot read rule %S" rules n l)
    (lines rules)

let () =
  match List.sort_uniq compare !problems with
  | [] ->
      Printf.printf
        "export check: %d exported vals with %d optional arguments in %d lib interfaces, %d hooks, \
         %d references resolved\n"
        (Hashtbl.length exports)
        (Hashtbl.fold (fun _ ls n -> n + List.length ls) optionals 0)
        (Hashtbl.length interfaces)
        (Hashtbl.length hooks + Hashtbl.length label_hooks)
        !resolved
  | ps ->
      prerr_endline "export check failed:";
      List.iter (fun p -> prerr_endline ("  " ^ p)) ps;
      exit 1
