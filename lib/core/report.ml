let code buf body =
  Buffer.add_string buf "```\n";
  Buffer.add_string buf body;
  Buffer.add_string buf "```\n\n"

let heading buf level title =
  Buffer.add_string buf (String.make level '#');
  Buffer.add_char buf ' ';
  Buffer.add_string buf title;
  Buffer.add_string buf "\n\n"

let figure_section buf =
  heading buf 2 "Paper figures";
  List.iter
    (fun (_, title, render) ->
      heading buf 3 title;
      code buf (render ()))
    Scenario.figures

let experiment_section buf =
  heading buf 2 "Experiments";
  List.iter
    (fun (e : Experiments.spec) ->
      heading buf 3 e.title;
      code buf (Table.render (e.run Topology.Internet.default_params)))
    Experiments.all

let generate () =
  let buf = Buffer.create 16384 in
  heading buf 1 "evolvenet results";
  Buffer.add_string buf
    "Regenerated by `evolvenet report` / `Evolve.Report.generate`. Every\n\
     table is deterministic; see EXPERIMENTS.md for the reading guide.\n\n";
  figure_section buf;
  experiment_section buf;
  Buffer.contents buf

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (generate ()))
