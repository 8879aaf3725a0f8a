//! `exp` — every experiment suite and tool of the reproduction behind
//! one command; `exp help` lists them. See [`diners_bench::cli`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(diners_bench::cli::main(&argv));
}
