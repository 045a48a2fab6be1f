#pragma once
/// \file cli.hpp
/// \brief Command line of the perfbench harness. Parsing never throws:
/// `--help` asks for usage, and an unknown or malformed flag is an error the
/// caller reports with usage and a nonzero exit status.
#include <string>

#include "harness.hpp"

namespace perfbench {

/// What the command line asked for.
enum class ParseOutcome { Run, Help, Error };

/// Parse `--name value` / `--name=value` flags into `cfg`. On Error,
/// `error` says which flag was wrong and why.
ParseOutcome parse_args(int argc, const char* const* argv, Config& cfg,
                        std::string& error);

/// Usage text listing every flag and workload.
std::string usage(const std::string& program);

}  // namespace perfbench
