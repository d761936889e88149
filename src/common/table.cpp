#include "common/table.hpp"

#include <iomanip>
#include <sstream>

#include "common/logging.hpp"

namespace common {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        panic("Table::addRow: arity mismatch (", cells.size(), " vs ",
              headers_.size(), ")");
    rows_.push_back(std::move(cells));
}

std::string
Table::str() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream oss;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            oss << "| " << std::setw(static_cast<int>(widths[c]))
                << row[c] << ' ';
        }
        oss << "|\n";
    };
    emit_row(headers_);
    for (std::size_t c = 0; c < headers_.size(); ++c)
        oss << "|" << std::string(widths[c] + 2, '-');
    oss << "|\n";
    for (const auto& row : rows_)
        emit_row(row);
    return oss.str();
}

std::string
Table::fmt(double v, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << v;
    return oss.str();
}

} // namespace common
