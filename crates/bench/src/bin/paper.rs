//! Regenerate the paper's tables and figures:
//! `cargo run --release -p vod-bench --bin paper -- [--quick|--full] [name …]`
//! (see `vod_bench::paper`). Bad arguments exit 2 with the valid names.

fn main() {
    let (scale, selected) = vod_bench::args_or_exit("paper", vod_bench::paper::EXPERIMENTS);
    vod_bench::paper::run(scale, &selected);
}
