"""One module per subcommand of `cli`, each with `run(args) -> int`.

`cli.main` imports the module of the subcommand it dispatches, so a run
compiles only the command it runs. The plumbing they share lives in
`context`.
"""
