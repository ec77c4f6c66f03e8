//! # sirup-cli
//!
//! The `sirupctl` command-line tool: the workspace's functionality packaged
//! for a downstream user who wants to analyse a CQ without writing Rust.
//!
//! All command logic lives in this library ([`commands`]) and returns
//! strings, so the binary (`src/main.rs`) is a thin shell and the whole
//! surface is unit-testable. Every subcommand is one entry of a static
//! table, [`commands::COMMANDS`]: its positionals, its typed flags (kind,
//! default, one-line help) and its handler, in the shape of a
//! `#[derive(Subcommand)]` enum, hand-rolled because the offline crate set
//! has no CLI parser. [`args`] parses a command line against that table,
//! so an unknown flag, an ill-typed value or a surplus positional is an
//! error; typed reads take their defaults from it, and `help` is generated
//! from it.
//!
//! ```text
//! sirupctl parse      'F(x), R(x,y), T(y)'
//! sirupctl classify   'F(x), R(y,x), R(y,z), T(z)'
//! sirupctl bound      'F(x), R(x,y), T(y)' --max-d 2 --horizon 4
//! sirupctl rewrite    '<bounded 1-CQ>' --depth 1 --format sql
//! sirupctl cactus     'F(x), R(y,x), R(y,z), T(z)' --depth 2
//! sirupctl dot        'F(x), R(x,y), T(y)'
//! sirupctl schemaorg  'T(x), S(x,y), T(y), R(y,z), F(z)'
//! sirupctl serve      --requests 500 --threads 8
//! sirupctl replay     workloads/smoke.sirupload --threads 4
//! sirupctl zoo
//! ```

pub mod args;
pub mod commands;
pub mod dot;

pub use args::{parse_args, Args};
pub use commands::{run, CliError};
