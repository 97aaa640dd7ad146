//! CLI entry: regenerate the paper's tables and figures, and run the
//! robustness gates. The subcommands live in [`ppp_repro::cli`].

use ppp_repro::cli;

fn main() {
    // All diagnostics flow through the observation sink to stderr, so
    // stdout stays pure (JSON when asked) for every subcommand.
    ppp_obs::install_global(ppp_obs::ObsCtx::new(std::sync::Arc::new(
        ppp_obs::TextSink::stderr_verbose(),
    )));
    let inv = cli::parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| usage(&e));
    // The serve-tier commands fly with a recorder: the last N records
    // plus a metrics snapshot are dumped under --flight-dir on a panic,
    // a wire reject, or an abrupt server kill.
    if matches!(inv.name(), "serve" | "drive" | "chaos") {
        ppp_obs::install_flight(inv.flight_dir(), ppp_obs::DEFAULT_FLIGHT_CAPACITY);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = ppp_obs::flight_dump("panic");
            previous(info);
        }));
    }
    std::process::exit(cli::run(&inv));
}

/// Prints the usage text (after `error: {err}` unless `err` is empty,
/// which is `--help`) and exits 2 (0 for `--help`).
fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!("{}", cli::usage());
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
