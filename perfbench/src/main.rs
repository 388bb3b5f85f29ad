//! Command-line entry point; see the library documentation.

fn main() -> std::process::ExitCode {
    leapme_perfbench::cli_main()
}
