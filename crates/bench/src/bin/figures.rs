//! `figures --out <dir>` writes every figure and experiment behind
//! `results/` to `<dir>/<name>.txt`; `figures <name>` prints one.

use std::fs;
use std::path::Path;

use fairem_bench::figures::{Inputs, FIGURES};
use fairem_bench::OrFail;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inputs = Inputs::default();
    match args.as_slice() {
        [flag, dir] if flag == "--out" => {
            fs::create_dir_all(dir).orfail(dir);
            for (name, figure) in FIGURES {
                let path = Path::new(dir).join(format!("{name}.txt"));
                fs::write(&path, inputs.render(figure)).orfail(&path.display().to_string());
            }
        }
        [name] if !name.starts_with('-') => {
            let (_, figure) = FIGURES
                .iter()
                .find(|(n, _)| n == name)
                .orfail(&format!("no figure named `{name}` (see results/)"));
            print!("{}", inputs.render(*figure));
        }
        _ => {
            eprintln!("usage: figures --out <dir> | figures <name>");
            std::process::exit(1)
        }
    }
}
