#include "common/logging.hpp"

namespace common {

namespace {

bool verbose_enabled = true;

} // namespace

namespace detail {

void
fatalImpl(const std::string& msg)
{
    std::cerr << "fatal: " << msg << std::endl;
    std::exit(1);
}

void
panicImpl(const std::string& msg)
{
    std::cerr << "panic: " << msg << std::endl;
    std::abort();
}

void
informImpl(const std::string& msg)
{
    if (verbose_enabled)
        std::cout << "info: " << msg << std::endl;
}

void
warnImpl(const std::string& msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace detail

void
setVerbose(bool verbose)
{
    verbose_enabled = verbose;
}

} // namespace common
