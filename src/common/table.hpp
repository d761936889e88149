/**
 * @file
 * Small fixed-width table printer used by the benchmark harnesses to
 * emit paper-style tables and figure series.
 */
#pragma once

#include <string>
#include <vector>

namespace common {

/**
 * Accumulates rows of string cells and renders them with aligned,
 * padded columns.
 */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> cells);

    /** Render as an aligned text table. */
    std::string str() const;

    /** Fixed-point number formatting used by the bench harnesses. */
    static std::string fmt(double v, int precision = 2);

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace common
