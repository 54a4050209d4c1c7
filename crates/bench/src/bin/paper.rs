//! Regenerate the paper's tables and figures:
//! `cargo run --release -p vod-bench --bin paper -- [--quick|--full] [name …]`
//! (see `vod_bench::paper`). Bad arguments exit 2 with the valid names.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match vod_bench::paper::parse_args(&args) {
        Ok((scale, selected)) => vod_bench::paper::run(scale, &selected),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
