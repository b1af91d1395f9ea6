(* Known answers, read from the hand-written expected.txt (compiled in as
   [Expected_data.text]). One line per job:

     <job> <verdict> [<field>=<int> ...]

   Every job a workload runs must have a line; a job without one fails. *)

type entry = { verdict : string; fields : (string * int) list }

let parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun w -> w <> "")
         with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | [ _ ] -> invalid_arg ("expected.txt: no verdict on line: " ^ line)
         | job :: verdict :: fields ->
           let field f =
             match String.split_on_char '=' f with
             | [ k; v ] -> (
               match int_of_string_opt v with
               | Some i -> (k, i)
               | None -> invalid_arg ("expected.txt: bad number in " ^ f))
             | _ -> invalid_arg ("expected.txt: bad field " ^ f)
           in
           Some (job, { verdict; fields = List.map field fields }))

let table = lazy (parse Expected_data.text)

let find job =
  match List.assoc_opt job (Lazy.force table) with
  | Some e -> Ok e
  | None -> Error (Printf.sprintf "no known answer for job %s" job)

(* [Ok ()] when every field the entry names equals the measured value. *)
let check_fields job (e : entry) measured =
  List.fold_left
    (fun acc (k, want) ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        match List.assoc_opt k measured with
        | Some got when got = want -> Ok ()
        | Some got -> Error (Printf.sprintf "%s: %s = %d, expected %d" job k got want)
        | None -> Error (Printf.sprintf "%s: %s was not measured" job k)))
    (Ok ()) e.fields
